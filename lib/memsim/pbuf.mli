(** The persistence buffer of a buffered-Px86 machine
    ({!Machine.Pbuffered}): lines whose contents a flush captured but
    that have not yet reached NVRAM.

    An entry may drain ({e is eligible}) when no pending entry of its
    line is older (per-line FIFO: it is its line's {e head}) and no
    pending entry of its thread carries an earlier fence epoch (the
    frontier a fence marked).  The oldest entry is always eligible:
    any blocker would have to precede it.

    Entries sit at positions [0 .. length - 1], in the order a
    scheduler numbers its candidates; {!drain} moves the last entry
    into the drained one's position.  Each operation is O(1)
    (amortized): each line links its pending entries oldest first,
    each thread tracks its earliest pending epoch and links the later
    ones, and an enqueue-order array gives the oldest entry.
    Eligibility is kept up to date as entries come and go. *)

type entry

val tid : entry -> int
(** The flushing thread. *)

val kind : entry -> Event.flush_kind
val addr : entry -> int

val epoch : entry -> int
(** The thread's fence epoch at capture time. *)

val seq : entry -> int
(** Enqueue stamp: 1, 2, ... in push order. *)

val pos : entry -> int
(** Current position; -1 once drained. *)

val head : entry -> bool
(** No pending entry of its line is older. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val get : t -> int -> entry
(** The entry at a position. *)

val eligible : t -> int -> bool
(** Whether the entry at a position may drain. *)

val eligible_count : t -> int

val push :
  t -> tid:int -> kind:Event.flush_kind -> addr:int -> epoch:int -> unit
(** Enqueue a captured line at position [length t].  A thread's epochs
    must not decrease from one push to the next. *)

val oldest : t -> int
(** The position of the entry with the smallest stamp, or -1 when the
    buffer is empty. *)

val drain : t -> int -> entry
(** Remove the entry at a position and return it; the last entry takes
    its position.  Raises [Invalid_argument] when it is not eligible. *)
