type space =
  | Volatile
  | Persistent

let equal_space a b =
  match a, b with
  | Volatile, Volatile | Persistent, Persistent -> true
  | Volatile, Persistent | Persistent, Volatile -> false

let volatile_base = 0x4000_0000

let space_of a = if a >= volatile_base then Volatile else Persistent

let is_aligned ~size a = a land (size - 1) = 0

let align_up a ~quantum = (a + quantum - 1) land lnot (quantum - 1)

let block ~gran a = a / gran

let is_power_of_two n = n > 0 && n land (n - 1) = 0
