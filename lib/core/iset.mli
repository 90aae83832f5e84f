(** Integer sets (persist node ids): [Set.Make(Int)]. *)

include Set.S with type elt = int
