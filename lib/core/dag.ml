type t = {
  n : int;
  all : Iset.t;  (** [0 .. n-1] *)
  succ : Iset.t array;
  pred : Iset.t array;
}

let node_count t = t.n

let of_preds pred =
  let n = Array.length pred in
  let succ = Array.make n [] in
  (* Visiting targets in descending order leaves each list ascending. *)
  for v = n - 1 downto 0 do
    Iset.iter
      (fun u ->
        if u < 0 || u >= n then invalid_arg "Dag: node out of range";
        succ.(u) <- v :: succ.(u))
      pred.(v)
  done;
  { n; all = Iset.of_list (List.init n Fun.id);
    succ = Array.map Iset.of_list succ; pred = Array.copy pred }

let create ~n = of_preds (Array.make n Iset.empty)

let check t v = if v < 0 || v >= t.n then invalid_arg "Dag: node out of range"

let add_edge t u v =
  check t u;
  check t v;
  t.succ.(u) <- Iset.add v t.succ.(u);
  t.pred.(v) <- Iset.add u t.pred.(v)

let succs t u =
  check t u;
  Iset.elements t.succ.(u)

let preds t v =
  check t v;
  Iset.elements t.pred.(v)

(* Kahn's algorithm; shared by [topo_sort] and [has_cycle]. *)
let kahn t =
  let indeg = Array.init t.n (fun v -> Iset.cardinal t.pred.(v)) in
  let ready = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.push v ready) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty ready) do
    let v = Queue.pop ready in
    incr seen;
    order := v :: !order;
    Iset.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.push w ready)
      t.succ.(v)
  done;
  if !seen = t.n then Some (List.rev !order) else None

let topo_sort = kahn
let has_cycle t = kahn t = None

(* [seen.(v)] iff [v] is reachable from [roots] along [edges] (the
   [succ] or the [pred] sets), roots included. *)
let visit t edges roots =
  let seen = Array.make t.n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      Iset.iter dfs edges.(u)
    end
  in
  Iset.iter (fun v -> check t v; dfs v) roots;
  seen

let reachable_from t u = visit t t.succ (Iset.singleton u)

let nodes_where t f = Iset.filter f t.all

let down_closure t set = nodes_where t (Array.get (visit t t.pred set))

let ancestors t v =
  check t v;
  down_closure t t.pred.(v)

(* No edge enters [set] from outside.  [random_down_closed] walks the
   successors of the nodes it takes and this walks those of the rest,
   so drawing and checking a cut cost the same whatever its size. *)
let is_down_closed t set =
  let mem = Array.make t.n false in
  Iset.iter (fun v -> mem.(v) <- true) set;
  let outside v = not mem.(v) in
  Iset.for_all
    (fun u -> Iset.for_all outside t.succ.(u))
    (nodes_where t outside)

let random_down_closed ?size t rng =
  let target =
    match size with
    | Some k -> min k t.n
    | None -> Random.State.int rng (t.n + 1)
  in
  let indeg = Array.init t.n (fun v -> Iset.cardinal t.pred.(v)) in
  let ready = Memsim.Vec.create () in
  Array.iteri (fun v d -> if d = 0 then Memsim.Vec.push ready v) indeg;
  let taken = Array.make t.n false in
  let count = ref 0 in
  while !count < target && not (Memsim.Vec.is_empty ready) do
    let i = Random.State.int rng (Memsim.Vec.length ready) in
    let v = Memsim.Vec.swap_remove ready i in
    taken.(v) <- true;
    incr count;
    Iset.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Memsim.Vec.push ready w)
      t.succ.(v)
  done;
  nodes_where t (Array.get taken)

(* Bitmask of each node's closure along [edges], the node included. *)
let closure_masks t edges =
  Array.init t.n (fun v ->
      let seen = visit t edges (Iset.singleton v) in
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
