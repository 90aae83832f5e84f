(* What every benchmark workload provides to the measuring loop. *)

type outcome = {
  outputs : (string * string) list;
      (** simulated results, compared against the pinned values; the
          [complete] and [cuts_*] keys also record coverage *)
  work : float;  (** units of [work_name] done by the round *)
}

module type S = sig
  val name : string

  val work_name : string
  (** the end-to-end rate this workload reports, e.g. [sim_events_per_s] *)

  val work_unit : string

  type state

  val setup : seed:int -> Layers.t -> state
  (** Seeded input generation and any recorded input (the recorder is
      {!Layers.off} outside the traced run). *)

  val round : state -> outcome
  (** One timed round, through the same calls the CLI makes. *)

  val traced_round : state -> Layers.t -> outcome
  (** The same work composed from the layers' public functions, with
      each layer's calls timed.  Its outputs must equal [round]'s. *)

  val final_check : state -> (string * string) list
  (** Untimed checks run once after the rounds. *)
end
