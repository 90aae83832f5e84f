(** Simulated address spaces.

    The machine exposes a single flat integer address space that is
    partitioned into a persistent region (low addresses) and a volatile
    region (addresses at or above {!volatile_base}).  The paper assumes
    "memory provides both volatile and persistent address spaces"
    (Section 2.1); the split lets the persistency analyses classify
    every access without consulting the memory image. *)

type space =
  | Volatile
  | Persistent

val equal_space : space -> space -> bool

(** First address of the volatile region.  Persistent addresses are
    [0 <= a < volatile_base]; volatile addresses are
    [a >= volatile_base]. *)
val volatile_base : int

(** [space_of a] classifies address [a]. *)
val space_of : int -> space

(** [is_aligned ~size a] is true when [a] is a multiple of [size]. *)
val is_aligned : size:int -> int -> bool

(** [align_up a ~quantum] rounds [a] up to a multiple of [quantum]
    (a power of two). *)
val align_up : int -> quantum:int -> int

(** [block ~gran a] is the index of the [gran]-byte aligned block
    containing [a].  [gran] must be a power of two. *)
val block : gran:int -> int -> int

(** [is_power_of_two n] for positive [n]. *)
val is_power_of_two : int -> bool
