(** Streaming summary statistics (Welford's algorithm). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
(** Sample variance; [nan] below two observations. *)

val min_value : t -> float
val max_value : t -> float
val of_list : float list -> t

val percentile : float -> float list -> float
(** [percentile p xs] is the smallest observation such that at least
    [p] (in [0, 1]) of [xs] are at or below it (nearest-rank method;
    exact, sorts the list).  [nan] when empty; the observation itself
    for a single sample; [p = 0.] is the minimum and [p = 1.] the
    maximum, exactly.  Robust to float noise in [p *. n] (e.g. p95 of
    20 samples is the 19th order statistic, not the 20th).  The
    streaming summary cannot answer this, so it takes the raw
    observations.
    @raise Invalid_argument when [p] is outside [0, 1]. *)
