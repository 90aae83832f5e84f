(** In-memory traces: capture, inspection, (de)serialization.

    Analyses normally consume events online through a machine sink; a
    [Trace.t] materializes the event sequence for replay, golden tests
    and the [persistsim trace] command. *)

type t

val create : unit -> t

val sink : t -> Event.t -> unit
(** Append an event; pass [sink t] to {!Machine.set_sink}. *)

val length : t -> int
val get : t -> int -> Event.t
val iter : (Event.t -> unit) -> t -> unit
val to_list : t -> Event.t list
val of_list : Event.t list -> t

val persists : t -> int
(** Number of persist-generating events (stores/RMWs to persistent
    space). *)

val threads : t -> int
(** Number of distinct thread ids. *)

val to_channel : out_channel -> t -> unit
(** One event per line, via {!Event.to_string}. *)

val of_channel : in_channel -> t
(** @raise Failure on malformed input. *)
