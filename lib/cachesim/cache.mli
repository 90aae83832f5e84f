(** A set-associative write-back cache with per-line metadata.

    Substrate for the BPFS-style epoch-persistency hardware sketch
    (paper Section 5.2): the epoch machinery tags each dirty line with
    the thread and epoch that last persisted to it, and forces
    writebacks when conflicts or evictions would violate epoch order.
    This module provides only the cache geometry — lookup, allocation,
    LRU replacement — and leaves policy to {!Epoch_hw}. *)

type geometry = {
  sets : int;  (** power of two *)
  ways : int;
  line_bytes : int;  (** power of two, >= 8 *)
}

val default_geometry : geometry
(** 64 sets x 8 ways x 64-byte lines = 32 KiB, an L1-like cache. *)

val geometry_capacity_bytes : geometry -> int

type 'a t
(** A cache whose lines carry user metadata of type ['a]. *)

val create : geometry -> 'a t
val geometry : 'a t -> geometry

val line_of_addr : 'a t -> int -> int
(** Line-aligned base address of the line containing an address. *)

type 'a line = {
  base : int;  (** line-aligned address *)
  mutable dirty : bool;
  mutable meta : 'a;
}

val find : 'a t -> int -> 'a line option
(** Lookup by address; a hit refreshes LRU. *)

val insert : 'a t -> int -> meta:'a -> 'a line * 'a line option
(** [insert t addr ~meta] allocates the line containing [addr]
    (returning it), evicting the LRU way if the set is full; the
    evicted line (possibly clean) is returned.  If the line is already
    present it is returned with its metadata unchanged. *)

val evict : 'a t -> int -> 'a line option
(** Remove the line containing the address, returning it. *)

val dirty_lines : 'a t -> 'a line list
val occupancy : 'a t -> int
(** Number of resident lines. *)
