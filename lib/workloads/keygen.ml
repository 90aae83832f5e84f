(* Seeded key-popularity generators.  Every draw is a pure function of
   (seed, index): [key_at] can be called from any domain, in any order,
   and replayed exactly — the property the sharded serve front-end and
   the recovery checker both rely on.  [next] is a convenience cursor
   over the same sequence. *)

type dist =
  | Uniform
  | Zipf of float
  | Hotset of { hot_keys : int; hot_pct : int }

type t = {
  dist : dist;
  key_space : int;
  seed : int;
  cdf : float array; (* cumulative model probabilities; empty for Uniform *)
  mutable cursor : int;
}

(* A murmur3-style finalizer: [Kv.mix]'s shift-multiply rounds with
   other constants and shifts, so its draws are not [Kv.mix]'s. *)
let mix seed x =
  let h = ref (seed * 0x9E3779B9 lxor (x * 0x85EBCA6B)) in
  h := !h lxor (!h lsr 16);
  h := !h * 0x21F0AAAD;
  h := !h lxor (!h lsr 15);
  h := !h * 0x735A2D97;
  h := !h lxor (!h lsr 15);
  !h land max_int

(* Uniform draw in [0, 1) from (seed, index). *)
let u01 seed i = float_of_int (mix seed i) /. (float_of_int max_int +. 1.)

let validate dist ~key_space =
  if key_space < 1 then invalid_arg "Keygen: key_space must be >= 1";
  match dist with
  | Uniform -> ()
  | Zipf theta ->
    if not (Float.is_finite theta) || theta <= 0. then
      invalid_arg "Keygen: Zipf skew must be finite and > 0"
  | Hotset { hot_keys; hot_pct } ->
    if hot_keys < 1 || hot_keys >= key_space then
      invalid_arg "Keygen: Hotset hot_keys must be in [1, key_space)";
    if hot_pct < 0 || hot_pct > 100 then
      invalid_arg "Keygen: Hotset hot_pct must be in [0, 100]"

let pmf_of dist ~key_space =
  match dist with
  | Uniform ->
    Array.make key_space (1. /. float_of_int key_space)
  | Zipf theta ->
    let w = Array.init key_space (fun i -> (float_of_int (i + 1)) ** -.theta) in
    let z = Array.fold_left ( +. ) 0. w in
    Array.map (fun x -> x /. z) w
  | Hotset { hot_keys; hot_pct } ->
    let hot = float_of_int hot_pct /. 100. in
    let cold_keys = key_space - hot_keys in
    Array.init key_space (fun i ->
        if i < hot_keys then hot /. float_of_int hot_keys
        else (1. -. hot) /. float_of_int cold_keys)

let create dist ~key_space ~seed =
  validate dist ~key_space;
  let cdf =
    match dist with
    | Uniform -> [||]
    | _ ->
      let pmf = pmf_of dist ~key_space in
      let acc = ref 0. in
      Array.map
        (fun p ->
          acc := !acc +. p;
          !acc)
        pmf
  in
  if Array.length cdf > 0 then cdf.(Array.length cdf - 1) <- 1.;
  { dist; key_space; seed; cdf; cursor = 0 }

let dist t = t.dist
let key_space t = t.key_space
let pmf t = pmf_of t.dist ~key_space:t.key_space

(* Smallest index with cdf.(i) > u. *)
let search cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let key_at t i =
  match t.dist with
  | Uniform -> 1 + (mix t.seed i mod t.key_space)
  | _ -> 1 + search t.cdf (u01 t.seed i)

let next t =
  let k = key_at t t.cursor in
  t.cursor <- t.cursor + 1;
  k

let dist_name = function
  | Uniform -> "uniform"
  | Zipf theta -> Printf.sprintf "zipf:%g" theta
  | Hotset { hot_keys; hot_pct } ->
    Printf.sprintf "hotset:%d:%d" hot_keys hot_pct

let dist_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "bad distribution %S (expected uniform, zipf:THETA or \
          hotset:KEYS:PCT)"
         s)
  in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "uniform" ] -> Ok Uniform
  | [ "zipf"; theta ] -> (
    match float_of_string_opt theta with
    | Some theta when Float.is_finite theta && theta > 0. -> Ok (Zipf theta)
    | _ -> fail ())
  | [ "hotset"; keys; pct ] -> (
    match (int_of_string_opt keys, int_of_string_opt pct) with
    | Some hot_keys, Some hot_pct when hot_keys >= 1 && hot_pct >= 0 && hot_pct <= 100
      ->
      Ok (Hotset { hot_keys; hot_pct })
    | _ -> fail ())
  | _ -> fail ()
