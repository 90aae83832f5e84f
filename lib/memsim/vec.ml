type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len
let is_empty v = v.len = 0

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let data = Array.make cap' x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let swap_remove v i =
  check v i;
  let x = v.data.(i) in
  v.len <- v.len - 1;
  v.data.(i) <- v.data.(v.len);
  x

let pop v = if v.len = 0 then None else Some (swap_remove v (v.len - 1))

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f init v =
  let acc = ref init in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let clear v = v.len <- 0

let grow_array a n x =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) x in
    Array.blit a 0 b 0 (Array.length a);
    b
  end
