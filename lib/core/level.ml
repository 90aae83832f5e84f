type t = {
  level : int;
  prov : int list;
  size : int;
}

let max_provenance = 20

let bottom = { level = 0; prov = []; size = 0 }

let of_node ~level ~node = { level; prov = [ node ]; size = 1 }

(* [prov] at [level], or unknown ([]) past the provenance cap. *)
let capped level prov size =
  if size > max_provenance then { level; prov = []; size = 0 }
  else { level; prov; size }

(* Merge two descending distinct lists.  [acc] holds the [n] ids taken
   so far, smallest first. *)
let union level a b =
  let rec go n acc a b =
    match a, b with
    | [], rest | rest, [] ->
      capped level (List.rev_append acc rest) (n + List.length rest)
    | _ when n >= max_provenance -> capped level [] (n + 1)
    | x :: a', y :: b' ->
      if x > y then go (n + 1) (x :: acc) a' b
      else if y > x then go (n + 1) (y :: acc) a b'
      else go (n + 1) (x :: acc) a' b'
  in
  go 0 [] a b

(* [subset a b]: every member of descending list [a] is in descending
   list [b]. *)
let rec subset a b =
  match a, b with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
    if x = y then subset a' b' else if x < y then subset a b' else false

(* Whenever the result equals an input, the input itself is returned, so
   the common merges — a view with itself, or with a level it already
   covers — allocate nothing.  The other common merge adds the persist
   just created, newer than every node of the view: one cons. *)
let merge a b =
  if a.level > b.level then a
  else if b.level > a.level then b
  else if a.level = 0 then bottom
  else if a == b || a.size = 0 then a
    (* at a positive level, [] means provenance overflowed to unknown,
       which absorbs *)
  else if b.size = 0 then b
  else
    match a.prov, b.prov with
    | x :: _, [ y ] when y > x -> capped a.level (y :: a.prov) (a.size + 1)
    | [ x ], y :: _ when x > y -> capped a.level (x :: b.prov) (b.size + 1)
    | _ ->
      if a.size <= b.size && subset a.prov b.prov then b
      else if b.size <= a.size && subset b.prov a.prov then a
      else union a.level a.prov b.prov

let level t = t.level
let provenance t = List.rev t.prov

let excluding ~node t =
  match t.prov with
  | [ n ] when n = node -> 0
  | _ -> t.level
