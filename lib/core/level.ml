type t = {
  level : int;
  prov : int list;
}

let max_provenance = 20

let bottom = { level = 0; prov = [] }

let of_node ~level ~node = { level; prov = [ node ] }

(* Merge two sorted distinct lists, giving up (returning []) past the
   provenance cap. *)
let union a b =
  let rec go n acc a b =
    if n > max_provenance then None
    else
      match a, b with
      | [], rest | rest, [] ->
        if n + List.length rest > max_provenance then None
        else Some (List.rev_append acc rest)
      | x :: a', y :: b' ->
        if x < y then go (n + 1) (x :: acc) a' b
        else if y < x then go (n + 1) (y :: acc) a b'
        else go (n + 1) (x :: acc) a' b'
  in
  match go 0 [] a b with
  | Some l -> l
  | None -> []

(* [subset a b]: every member of sorted list [a] is in sorted list [b]. *)
let rec subset a b =
  match a, b with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
    if x = y then subset a' b' else if x > y then subset a b' else false

(* Whenever the result equals an input, the input itself is returned, so
   the common merges — a view with itself, or with a level it already
   covers — allocate nothing. *)
let merge a b =
  if a.level > b.level then a
  else if b.level > a.level then b
  else if a.level = 0 then bottom
  else if a == b || a.prov = [] then a
    (* at a positive level, [] means provenance overflowed to unknown,
       which absorbs *)
  else if b.prov = [] || subset a.prov b.prov then b
  else if subset b.prov a.prov then a
  else { level = a.level; prov = union a.prov b.prov }

let level t = t.level
let provenance t = t.prov

let excluding ~node t =
  match t.prov with
  | [ n ] when n = node -> 0
  | _ -> t.level

let pp ppf t =
  match t.prov with
  | [] -> Format.fprintf ppf "%d" t.level
  | prov ->
    Format.fprintf ppf "%d@@{%a}" t.level
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      prov
