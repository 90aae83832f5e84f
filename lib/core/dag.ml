(* One immutable representation: each node's successors and
   predecessors as an ascending, duplicate-free int array, and the
   in-degrees the draws and Kahn's algorithm start from.  [all] is the
   set every result set is filtered from. *)
type t = {
  n : int;
  all : Iset.t;  (** [0 .. n-1] *)
  succ : int array array;
  pred : int array array;
  indeg : int array;
}

let node_count t = t.n

let out_of_range () = invalid_arg "Dag: node out of range"

(* A fresh ascending, duplicate-free copy of [a]; sorts only when [a]
   is not already strictly ascending. *)
let normalize n a =
  let len = Array.length a in
  let ascending = ref true in
  for i = 0 to len - 1 do
    let u = a.(i) in
    if u < 0 || u >= n then out_of_range ();
    if i > 0 && a.(i - 1) >= u then ascending := false
  done;
  if !ascending then Array.copy a
  else Array.of_list (List.sort_uniq Int.compare (Array.to_list a))

let of_preds p =
  let n = Array.length p in
  let pred = Array.map (normalize n) p in
  let outdeg = Array.make n 0 in
  Array.iter (Array.iter (fun u -> outdeg.(u) <- outdeg.(u) + 1)) pred;
  let succ = Array.map (fun d -> Array.make d 0) outdeg in
  (* Targets visited in descending order fill each array from its end,
     which leaves it ascending; [outdeg] counts back down to 0. *)
  for v = n - 1 downto 0 do
    let ps = pred.(v) in
    for i = 0 to Array.length ps - 1 do
      let u = ps.(i) in
      outdeg.(u) <- outdeg.(u) - 1;
      succ.(u).(outdeg.(u)) <- v
    done
  done;
  { n;
    all = Iset.of_list (List.init n Fun.id);
    succ;
    pred;
    indeg = Array.map Array.length pred }

let check t v = if v < 0 || v >= t.n then out_of_range ()

let succs t u =
  check t u;
  Array.to_list t.succ.(u)

let preds t v =
  check t v;
  Array.to_list t.pred.(v)

let nodes_where t f = Iset.filter f t.all

(* Kahn's algorithm; shared by [topo_sort] and [has_cycle]. *)
let kahn t =
  let indeg = Array.copy t.indeg in
  let ready = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.push v ready) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty ready) do
    let v = Queue.pop ready in
    incr seen;
    order := v :: !order;
    Array.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.push w ready)
      t.succ.(v)
  done;
  if !seen = t.n then Some (List.rev !order) else None

let topo_sort = kahn
let has_cycle t = kahn t = None

(* [seen.(v)] iff [v] is reachable along [edges] (the [succ] or the
   [pred] arrays) from a node [iter_roots] yields, roots included. *)
let visit t edges iter_roots =
  let seen = Array.make t.n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      Array.iter dfs edges.(u)
    end
  in
  iter_roots (fun v -> check t v; dfs v);
  seen

let reachable_from t u = visit t t.succ (fun f -> f u)

let down_closure t set =
  nodes_where t (Array.get (visit t t.pred (fun f -> Iset.iter f set)))

let ancestors t v =
  check t v;
  let seen = visit t t.pred (fun f -> Array.iter f t.pred.(v)) in
  nodes_where t (Array.get seen)

(* No edge enters [set] from outside.  [random_down_closed] walks the
   successors of the nodes it takes and this walks those of the rest,
   so drawing and checking a cut cost the same whatever its size. *)
let is_down_closed t set =
  let mem = Bytes.make t.n '0' in
  Iset.iter
    (fun v ->
      check t v;
      Bytes.set mem v '1')
    set;
  let closed = ref true and u = ref 0 in
  while !closed && !u < t.n do
    if Bytes.get mem !u = '0' then begin
      let ws = t.succ.(!u) in
      for i = 0 to Array.length ws - 1 do
        if Bytes.get mem ws.(i) = '1' then closed := false
      done
    end;
    incr u
  done;
  !closed

(* The ready nodes live in [ready.(0 .. !len-1)]; a node becomes ready
   at most once, so [n] slots suffice.  Removal moves the last slot into
   the drawn one, so the same draws pick the same nodes.  Node marks
   here and in [is_down_closed] are bytes: a byte per node keeps the
   per-cut scratch of a graph of up to ~2,000 nodes in the minor heap. *)
let random_down_closed ?size t rng =
  let target =
    match size with
    | Some k -> min k t.n
    | None -> Random.State.int rng (t.n + 1)
  in
  let indeg = Array.copy t.indeg in
  let ready = Array.make t.n 0 in
  let len = ref 0 in
  for v = 0 to t.n - 1 do
    if indeg.(v) = 0 then begin
      ready.(!len) <- v;
      incr len
    end
  done;
  let taken = Bytes.make t.n '0' in
  let count = ref 0 in
  while !count < target && !len > 0 do
    let i = Random.State.int rng !len in
    let v = ready.(i) in
    decr len;
    ready.(i) <- ready.(!len);
    Bytes.set taken v '1';
    incr count;
    let ws = t.succ.(v) in
    for j = 0 to Array.length ws - 1 do
      let w = ws.(j) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then begin
        ready.(!len) <- w;
        incr len
      end
    done
  done;
  nodes_where t (fun v -> Bytes.get taken v = '1')

(* Bitmask of each node's closure along [edges], the node included. *)
let closure_masks t edges =
  Array.init t.n (fun v ->
      let seen = visit t edges (fun f -> f v) in
      Array.fold_right (fun s m -> (m lsl 1) lor Bool.to_int s) seen 0)

(* Decide nodes from the highest id down.  Taking [v] takes its whole
   down-closure and leaving it out leaves out its whole up-closure; an
   undecided node is in neither, so both branches stay consistent and
   every leaf is a distinct down-closed cut, cycles included.  The
   leave-out branch's cuts are consed first and the take branch's on
   top, which lists the cuts in descending bitmask order. *)
let all_down_closed t =
  if t.n > 24 then invalid_arg "Dag.all_down_closed: too many nodes";
  let down = closure_masks t t.pred and up = closure_masks t t.succ in
  let rec walk v taken left acc =
    if v < 0 then nodes_where t (fun u -> taken land (1 lsl u) <> 0) :: acc
    else if (taken lor left) land (1 lsl v) <> 0 then
      walk (v - 1) taken left acc
    else
      walk (v - 1) (taken lor down.(v)) left
        (walk (v - 1) taken (left lor up.(v)) acc)
  in
  walk (t.n - 1) 0 0 []
