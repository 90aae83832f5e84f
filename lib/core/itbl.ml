type 'a t = {
  mutable keys : int array;  (* [free] marks an unused slot *)
  mutable vals : 'a array;
  mutable shift : int;  (* Sys.int_size - log2 (Array.length keys) *)
  mutable count : int;
  absent : 'a;
}

let free = min_int

let create ~absent n =
  let bits = ref 3 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  { keys = Array.make (1 lsl !bits) free;
    vals = Array.make (1 lsl !bits) absent;
    shift = Sys.int_size - !bits;
    count = 0;
    absent }

(* Fibonacci hashing: the top bits of [k * golden ratio] spread clustered
   keys (consecutive block indices, addresses a megabyte apart) evenly
   over the slots. *)
let home k shift = (k * 0x4F1BBCDCBFA53E0B) lsr shift

(* The slot holding [k], or the free slot where [k] would go: the load
   factor stays at most 1/2, so a free slot always ends the probe. *)
let rec probe keys k i =
  let k' = keys.(i) in
  if k' = k || k' = free then i
  else probe keys k ((i + 1) land (Array.length keys - 1))

let find t k =
  let i = probe t.keys k (home k t.shift) in
  if t.keys.(i) = k && k <> free then t.vals.(i) else t.absent

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap free;
  t.vals <- Array.make cap t.absent;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i k ->
      if k <> free then begin
        let j = probe t.keys k (home k t.shift) in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

let replace t k v =
  if k = free then invalid_arg "Itbl.replace: min_int is not a valid key";
  let i = probe t.keys k (home k t.shift) in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.keys then grow t
  end
