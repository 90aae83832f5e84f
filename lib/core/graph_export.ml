module Pg = Persist_graph

(* Longest-path DP over the dependences, depth-first from each node in
   id order: a node's depth is one more than its deepest dependence's.
   The walk follows [order] edges too, so a cycle through them is
   reported as well; it needs no crash-cut order, whose reduction costs
   O(n^2 / 63) on a deep chain.  Returns (depth, best_pred) arrays where
   [depth.(id)] is the longest chain ending at [id] (>= 1) and
   [best_pred.(id)] the dependence achieving it (-1 at chain roots).
   Ties break toward the smallest dependence id, making the extracted
   chain deterministic. *)
let longest_paths g =
  let n = Pg.node_count g in
  (* 0 unvisited, -1 on the walk's stack *)
  let depth = Array.make n 0 in
  let best_pred = Array.make n (-1) in
  let rec visit id =
    if depth.(id) < 0 then invalid_arg "Graph_export: persist graph is cyclic";
    if depth.(id) = 0 then begin
      depth.(id) <- -1;
      let node = Pg.get g id in
      Iset.iter visit node.Pg.order;
      let d, p =
        Iset.fold
          (fun dep (d, p) ->
            visit dep;
            if depth.(dep) > d then (depth.(dep), dep) else (d, p))
          node.Pg.deps (0, -1)
      in
      depth.(id) <- d + 1;
      best_pred.(id) <- p
    end
  in
  for id = 0 to n - 1 do
    visit id
  done;
  (depth, best_pred)

let critical_chain g =
  if Pg.node_count g = 0 then []
  else begin
    let depth, best_pred = longest_paths g in
    let deepest = ref 0 in
    Array.iteri (fun id d -> if d > depth.(!deepest) then deepest := id) depth;
    let rec walk id acc =
      if id < 0 then acc else walk best_pred.(id) (id :: acc)
    in
    walk !deepest []
  end

let chain_set g = Iset.of_list (critical_chain g)

(* Distinct fill colors per thread, cycling; chosen light so the black
   label stays readable. *)
let tid_colors =
  [| "lightblue"; "palegreen"; "lightyellow"; "lightpink"; "lavender";
     "peachpuff"; "lightcyan"; "thistle" |]

let to_dot ppf g =
  let critical = chain_set g in
  let on_chain id = Iset.mem id critical in
  Format.fprintf ppf "digraph persist_graph {@.";
  Format.fprintf ppf "  rankdir=TB;@.";
  Format.fprintf ppf
    "  node [shape=box, style=filled, fontname=\"monospace\"];@.";
  Pg.iter
    (fun n ->
      let fill = tid_colors.(n.Pg.tid mod Array.length tid_colors) in
      let extra =
        if on_chain n.Pg.id then
          ", color=red, penwidth=2.5, peripheries=2"
        else ""
      in
      Format.fprintf ppf
        "  n%d [label=\"n%d\\nlevel %d, tid %d\\n%d write(s)\", \
         fillcolor=\"%s\"%s];@."
        n.Pg.id n.Pg.id n.Pg.level n.Pg.tid
        (Memsim.Vec.length n.Pg.writes)
        fill extra)
    g;
  Pg.iter
    (fun n ->
      Iset.iter
        (fun dep ->
          (* chain edges: consecutive critical nodes where the deeper
             one really chains through this dependence *)
          let bold =
            on_chain dep && on_chain n.Pg.id
            && Pg.((get g n.id).level = (get g dep).level + 1)
          in
          let attrs = if bold then " [color=red, penwidth=2.0]" else "" in
          Format.fprintf ppf "  n%d -> n%d%s;@." dep n.Pg.id attrs)
        n.Pg.deps;
      Iset.iter
        (fun dep ->
          Format.fprintf ppf "  n%d -> n%d [style=dashed];@." dep n.Pg.id)
        n.Pg.order)
    g;
  Format.fprintf ppf "}@."

let to_jsonl ppf g =
  let critical = chain_set g in
  Pg.iter
    (fun n ->
      let writes =
        Memsim.Vec.fold_left
          (fun acc (w : Pg.write) ->
            Obs.Json.Obj
              [ ("addr", Obs.Json.Int w.addr);
                ("size", Obs.Json.Int w.size);
                ("value", Obs.Json.Str (Int64.to_string w.value)) ]
            :: acc)
          [] n.Pg.writes
      in
      let deps =
        List.map (fun d -> Obs.Json.Int d) (Iset.elements n.Pg.deps)
      in
      let order =
        List.map (fun d -> Obs.Json.Int d) (Iset.elements n.Pg.order)
      in
      let line =
        Obs.Json.Obj
          [ ("id", Obs.Json.Int n.Pg.id);
            ("tid", Obs.Json.Int n.Pg.tid);
            ("level", Obs.Json.Int n.Pg.level);
            ("critical", Obs.Json.Bool (Iset.mem n.Pg.id critical));
            ("writes", Obs.Json.List (List.rev writes));
            ("deps", Obs.Json.List deps);
            ("order", Obs.Json.List order) ]
      in
      Format.fprintf ppf "%s@." (Obs.Json.to_string line))
    g

let explain ppf g =
  let chain = critical_chain g in
  let len = List.length chain in
  Format.fprintf ppf
    "critical path: %d level(s) over %d node(s); longest dependence \
     chain:@."
    len (Pg.node_count g);
  List.iteri
    (fun i id ->
      let n = Pg.get g id in
      let w = Memsim.Vec.get n.Pg.writes 0 in
      let extra = Memsim.Vec.length n.Pg.writes - 1 in
      let cause =
        if i = 0 then
          if Iset.is_empty n.Pg.deps then "chain root"
          else "chain root (deps all shallower)"
        else
          let prev = List.nth chain (i - 1) in
          let others = Iset.cardinal n.Pg.deps - 1 in
          if others > 0 then
            Printf.sprintf "persists after n%d (+%d other dep(s))" prev
              others
          else Printf.sprintf "persists after n%d" prev
      in
      Format.fprintf ppf
        "  level %*d: n%d (tid %d) persists %d byte(s) at 0x%x%s — %s@."
        (String.length (string_of_int len))
        n.Pg.level id n.Pg.tid w.Pg.size w.Pg.addr
        (if extra > 0 then Printf.sprintf " (+%d coalesced write(s))" extra
         else "")
        cause)
    chain

(* [string_of_int i] appended to [buf], digit by digit.  The digits
   come from the non-positive value, so [min_int] needs no special
   case ([/] and [mod] truncate toward zero). *)
let add_int buf i =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  in
  if i < 0 then Buffer.add_char buf '-';
  digits (if i < 0 then i else -i)

(* [Int64.to_string v] appended to [buf]: the digit writer whenever [v]
   is an [int]. *)
let add_int64 buf v =
  let i = Int64.to_int v in
  if Int64.equal (Int64.of_int i) v then add_int buf i
  else Buffer.add_string buf (Int64.to_string v)

(* Sort [a.(0) .. a.(k - 1)] ascending by insertion, in place.  It is
   quadratic in [k], but the graphs a DPOR search fingerprints are
   small (7 and 15 nodes on crash-lockfree), and so are their edge
   sets. *)
let sort_prefix a k =
  for i = 1 to k - 1 do
    let x = a.(i) in
    let j = ref i in
    while !j > 0 && a.(!j - 1) > x do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- x
  done

(* Canonical digest: node ids are assigned in SC creation order, so two
   trace-equivalent executions produce isomorphic graphs whose ids
   differ only by a reordering of independent steps.  Renumbering nodes
   by (tid, per-thread creation order) — which equivalent traces agree
   on, since per-thread order is program order — yields a canonical
   form, making the digest a fingerprint of the graph up to trace
   equivalence.  The form is written straight into one buffer: no
   string per integer and no list per edge set. *)
let fingerprint g =
  let n = Pg.node_count g in
  let tid = Array.init n (fun id -> (Pg.get g id).Pg.tid) in
  let order = Array.init n (fun id -> id) in
  Array.stable_sort (fun a b -> compare tid.(a) tid.(b)) order;
  let canon = Array.make n 0 in
  Array.iteri (fun new_id old_id -> canon.(old_id) <- new_id) order;
  let buf = Buffer.create 256 in
  (* an edge set has at most [n] members *)
  let sorted = Array.make n 0 in
  let k = ref 0 in
  let add d =
    sorted.(!k) <- canon.(d);
    incr k
  in
  let edges tag set =
    k := 0;
    Iset.iter add set;
    sort_prefix sorted !k;
    for i = 0 to !k - 1 do
      Buffer.add_char buf tag;
      add_int buf sorted.(i);
      Buffer.add_char buf ';'
    done
  in
  Array.iter
    (fun old_id ->
      let node = Pg.get g old_id in
      Buffer.add_char buf 'n';
      add_int buf canon.(old_id);
      Buffer.add_string buf " t";
      add_int buf node.Pg.tid;
      Buffer.add_string buf " l";
      add_int buf node.Pg.level;
      Buffer.add_char buf ':';
      Memsim.Vec.iter
        (fun (w : Pg.write) ->
          Buffer.add_char buf 'w';
          add_int buf w.Pg.addr;
          Buffer.add_char buf '.';
          add_int buf w.Pg.size;
          Buffer.add_char buf '=';
          add_int64 buf w.Pg.value;
          Buffer.add_char buf ';')
        node.Pg.writes;
      edges 'd' node.Pg.deps;
      edges 'o' node.Pg.order;
      Buffer.add_char buf '\n')
    order;
  Digest.to_hex (Digest.string (Buffer.contents buf))
