(** Integer sets, used for persist-node frontier tracking. *)
include Set.Make (Int)
