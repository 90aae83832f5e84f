type t = {
  buckets : (int, int ref) Hashtbl.t;
  mutable n : int;
}

let create () = { buckets = Hashtbl.create 64; n = 0 }

let add t v =
  t.n <- t.n + 1;
  match Hashtbl.find_opt t.buckets v with
  | Some r -> incr r
  | None -> Hashtbl.add t.buckets v (ref 1)

let count t = t.n

let frequency t v =
  if t.n = 0 then 0.
  else
    match Hashtbl.find_opt t.buckets v with
    | Some r -> float_of_int !r /. float_of_int t.n
    | None -> 0.

let support t =
  Hashtbl.fold (fun v _ acc -> v :: acc) t.buckets [] |> List.sort compare

let to_alist t = List.map (fun v -> (v, !(Hashtbl.find t.buckets v))) (support t)

let total_variation_distance a b =
  let union = List.sort_uniq compare (support a @ support b) in
  let sum =
    List.fold_left
      (fun acc v -> acc +. Float.abs (frequency a v -. frequency b v))
      0. union
  in
  sum /. 2.
