(** Integer histograms, used for the paper's insert-distance validation
    (Section 7: tracing must not perturb thread interleaving). *)

type t

val create : unit -> t
val add : t -> int -> unit
val count : t -> int
val frequency : t -> int -> float
(** Fraction of observations equal to the value; 0 when empty. *)

val support : t -> int list
(** Observed values, ascending. *)

val to_alist : t -> (int * int) list
(** (value, occurrences), ascending by value. *)

val total_variation_distance : t -> t -> float
(** ½ Σ |p(v) − q(v)| over the union support: 0 = identical
    distributions, 1 = disjoint.  The validation experiment checks this
    stays small across schedulers and seeds. *)
