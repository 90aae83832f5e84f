(** Int-keyed hash tables for the engine's per-event state.

    Open addressing with linear probing over power-of-two arrays.  A
    lookup returns the table's [absent] value instead of an option, so a
    hit allocates nothing; callers tell a miss apart with [==].  Keys
    may be any int except [min_int], which marks a free slot. *)

type 'a t

val create : absent:'a -> int -> 'a t
(** [create ~absent n] is an empty table sized for about [n] keys; it
    grows as needed.  [absent] is what {!find} returns for a missing
    key. *)

val find : 'a t -> int -> 'a
(** The value bound to the key, or the table's [absent] value. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding.
    @raise Invalid_argument on [min_int]. *)
