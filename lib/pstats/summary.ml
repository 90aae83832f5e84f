type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; total = 0.; min_v = infinity; max_v = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n
let total t = t.total
let mean t = if t.n = 0 then Float.nan else t.mean

let variance t =
  if t.n < 2 then Float.nan else t.m2 /. float_of_int (t.n - 1)

let min_value t = if t.n = 0 then Float.nan else t.min_v
let max_value t = if t.n = 0 then Float.nan else t.max_v

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let percentile p xs =
  if p < 0. || p > 1. then invalid_arg "Summary.percentile: p outside [0, 1]";
  match xs with
  | [] -> Float.nan
  | [ x ] -> x
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if p = 0. then a.(0)
    else if p = 1. then a.(n - 1)
    else
      (* Nearest rank: ceil (p * n).  The product carries float noise —
         0.95 *. 20. is 19.000000000000004, which a bare ceil rounds to
         20 and misreports p95 of 20 samples as the maximum — so snap
         to the nearest integer when within an ulp-scale epsilon. *)
      let r = p *. float_of_int n in
      let nearest = Float.round r in
      let rank =
        if Float.abs (r -. nearest) <= 1e-9 *. float_of_int n then
          int_of_float nearest
        else int_of_float (Float.ceil r)
      in
      a.(max 0 (min (n - 1) (rank - 1)))
