(** Simulated flat memory with a persistent and a volatile region.

    Both regions are byte arrays; accesses are little-endian, 1–8 bytes
    wide, naturally aligned, and never straddle an 8-byte boundary —
    matching the paper's assumption that NVRAM persists are atomic at
    (at least) eight-byte granularity.

    Each region has its own first-fit allocator ("persistent
    malloc/free", paper Section 7): allocation metadata lives outside
    the simulated address space, so allocator bookkeeping does not
    pollute the trace. *)

type t

val create :
  ?persistent_capacity:int -> ?volatile_capacity:int -> unit -> t
(** Capacities in bytes; defaults are 1 MiB each. *)

val load : t -> addr:int -> size:int -> int64
(** @raise Invalid_argument on bad size, misalignment, or out-of-bounds. *)

val store : t -> addr:int -> size:int -> int64 -> unit

val alloc : t -> Addr.space -> int -> int
(** [alloc t space n] returns an 8-byte aligned address of a fresh
    [n]-byte block.  @raise Out_of_memory when the region is full. *)

val free : t -> int -> unit
(** @raise Invalid_argument on a pointer that is not currently
    allocated. *)

val allocated_bytes : t -> Addr.space -> int
(** Bytes currently allocated in [space]. *)
