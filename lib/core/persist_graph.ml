type write = { addr : int; size : int; value : int64 }

type node = {
  id : int;
  tid : int;
  mutable level : int;
  writes : write Memsim.Vec.t;
  mutable deps : Iset.t;
  mutable order : Iset.t;
}

type t = { nodes : node Memsim.Vec.t }

let create () = { nodes = Memsim.Vec.create () }

let node_count t = Memsim.Vec.length t.nodes
let get t id = Memsim.Vec.get t.nodes id

let add_node t ~tid ~level ~deps ?(order = Iset.empty) write =
  let id = node_count t in
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
  Memsim.Vec.push n.writes write;
  n.deps <- Iset.union n.deps (Iset.remove id deps);
  n.order <- Iset.union n.order (Iset.remove id order)

let iter f t = Memsim.Vec.iter f t.nodes

let to_dag t =
  Dag.of_preds
    (Array.init (node_count t) (fun id ->
         let n = get t id in
         Iset.union n.deps n.order))

let pp ppf t =
  iter
    (fun n ->
      Format.fprintf ppf "n%d level=%d writes=%d deps=%a order=%a@." n.id
        n.level
        (Memsim.Vec.length n.writes)
        Iset.pp n.deps Iset.pp n.order)
    t
