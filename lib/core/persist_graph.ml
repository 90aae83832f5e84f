type write = { addr : int; size : int; value : int64 }

type node = {
  id : int;
  tid : int;
  level : int;
  writes : write Memsim.Vec.t;
  mutable deps : Iset.t;
  mutable order : Iset.t;
}

type t = {
  nodes : node Memsim.Vec.t;
  (* [reduce] scratch, indexed by node id: a slot equal to [stamp] marks
     a member of the frontier being reduced ([member]) or one that some
     member depends on ([covered]).  Bumping [stamp] clears both. *)
  mutable member : int array;
  mutable covered : int array;
  mutable stamp : int;
  (* The crash-cut order, built by the first [dag] after the last
     [add_node] or [coalesce_into]. *)
  mutable dag : Dag.t option;
}

let create () =
  { nodes = Memsim.Vec.create ();
    member = [||];
    covered = [||];
    stamp = 0;
    dag = None }

let node_count t = Memsim.Vec.length t.nodes
let get t id = Memsim.Vec.get t.nodes id

let add_node t ~tid ~level ~deps ?(order = Iset.empty) write =
  let id = node_count t in
  t.dag <- None;
  let writes = Memsim.Vec.create () in
  Memsim.Vec.push writes write;
  Memsim.Vec.push t.nodes
    { id;
      tid;
      level;
      writes;
      deps = Iset.remove id deps;
      order = Iset.remove id order };
  id

let coalesce_into t id ~deps ?(order = Iset.empty) write =
  let n = get t id in
  t.dag <- None;
  Memsim.Vec.push n.writes write;
  n.deps <- Iset.union n.deps (Iset.remove id deps);
  n.order <- Iset.union n.order (Iset.remove id order)

let reduce t set =
  if Iset.is_empty set || Iset.min_elt set = Iset.max_elt set then set
  else begin
    let n = node_count t in
    if Array.length t.member < n then begin
      let len = max n (2 * Array.length t.member) in
      t.member <- Array.make len 0;
      t.covered <- Array.make len 0
    end;
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp and member = t.member and covered = t.covered in
    Iset.iter (fun m -> member.(m) <- stamp) set;
    let dropped = ref false in
    let cover d =
      if member.(d) = stamp then begin
        covered.(d) <- stamp;
        dropped := true
      end
    in
    Iset.iter (fun m -> Iset.iter cover (get t m).deps) set;
    if !dropped then Iset.filter (fun m -> covered.(m) <> stamp) set else set
  end

let iter f t = Memsim.Vec.iter f t.nodes

(* Each node's [deps] and [order] ids, ascending. *)
let preds t =
  Array.init (node_count t) (fun id ->
      let n = get t id in
      let s = Iset.union n.deps n.order in
      let a = Array.make (Iset.cardinal s) 0 and i = ref 0 in
      Iset.iter
        (fun u ->
          a.(!i) <- u;
          incr i)
        s;
      a)

let dag t =
  match t.dag with
  | Some d -> d
  | None ->
    let d = Dag.of_preds_reduced (preds t) in
    t.dag <- Some d;
    d
