(** A minimal growable array (OCaml 5.1 predates [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val swap_remove : 'a t -> int -> 'a
(** [swap_remove v i] removes and returns element [i] in O(1) by moving
    the last element into its place.  Order is not preserved. *)

val pop : 'a t -> 'a option
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val clear : 'a t -> unit
