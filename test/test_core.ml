(* Tests for the persistency core: levels, configs, DAGs, the timing
   engine (hand-computed expectations per model), the persist graph,
   the recovery observer, and oracle-verified random traces. *)

module P = Persistency
module E = Memsim.Event

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Tiny trace DSL.  Persistent addresses are small; volatile addresses
   live above the volatile base. *)
let vb = Memsim.Addr.volatile_base

let access kind ?(tid = 0) ?(value = 1L) ?(size = 8) addr =
  E.Access
    (kind, { tid; addr; size; value; space = Memsim.Addr.space_of addr })

let st ?tid ?value ?size addr = access E.Store ?tid ?value ?size addr
let ld ?tid ?value addr = access E.Load ?tid ?value addr
let rmw ?tid ?value addr = access E.Rmw ?tid ?value addr
let pb tid = E.Persist_barrier { tid; site = "" }
let ns tid = E.New_strand { tid; site = "" }

let engine_of ?(cfg = P.Config.default P.Config.Epoch) events =
  let e = P.Engine.create cfg in
  List.iter (P.Engine.observe e) events;
  e

let cp ?cfg events = P.Engine.critical_path (engine_of ?cfg events)
let ops ?cfg events = P.Engine.persist_ops (engine_of ?cfg events)

let cfg mode = P.Config.default mode
let strict = cfg P.Config.Strict
let epoch = cfg P.Config.Epoch
let strand = cfg P.Config.Strand

(* Level *)

let test_level_merge () =
  let a = P.Level.of_node ~level:3 ~node:7 in
  let b = P.Level.of_node ~level:5 ~node:9 in
  checki "higher wins" 5 (P.Level.level (P.Level.merge a b));
  Alcotest.(check (list int)) "provenance of winner" [ 9 ]
    (P.Level.provenance (P.Level.merge a b));
  let c = P.Level.of_node ~level:5 ~node:11 in
  Alcotest.(check (list int)) "equal levels union" [ 9; 11 ]
    (P.Level.provenance (P.Level.merge b c));
  checki "bottom is identity" 3
    (P.Level.level (P.Level.merge a P.Level.bottom))

let test_level_excluding () =
  let open P.Level in
  let s1 = of_node ~level:4 ~node:1 in
  let s2 = of_node ~level:2 ~node:2 in
  checki "excludes own node" 0 (excluding ~node:1 s1);
  checki "keeps other nodes" 4 (excluding ~node:2 s1);
  checki "other node's level" 2 (excluding ~node:1 s2);
  checki "bottom" 0 (excluding ~node:1 bottom);
  (* mixed provenance at the same level is never attributable *)
  let mixed = merge (of_node ~level:4 ~node:1) (of_node ~level:4 ~node:3) in
  checki "mixed counts" 4 (excluding ~node:1 mixed)

let test_level_provenance_cap () =
  let big =
    List.fold_left
      (fun acc i -> P.Level.merge acc (P.Level.of_node ~level:1 ~node:i))
      P.Level.bottom
      (List.init (P.Level.max_provenance + 5) (fun i -> i))
  in
  Alcotest.(check (list int)) "cap degrades to unknown" []
    (P.Level.provenance big);
  checki "level kept" 1 (P.Level.level big)

(* [Level.merge] against a reference built from the plain capped sorted
   union.  Values are (level, node ids) specs folded from [of_node];
   the id lists include sizes around the 20-id cap, whose overflow is
   the [] "unknown" provenance. *)
let level_view l = (P.Level.level l, P.Level.provenance l)

let capped ids =
  let u = List.sort_uniq compare ids in
  if List.length u > P.Level.max_provenance then [] else u

let reference_merge (la, pa) (lb, pb) =
  if la > lb then (la, pa)
  else if lb > la then (lb, pb)
  else if la = 0 then (0, [])
  else if pa = [] || pb = [] then (la, [])
  else (la, capped (pa @ pb))

let model_of_spec (level, ids) =
  if level = 0 then (0, []) else (level, capped ids)

let level_of_spec (level, ids) =
  if level = 0 then P.Level.bottom
  else
    List.fold_left
      (fun acc node -> P.Level.merge acc (P.Level.of_node ~level ~node))
      P.Level.bottom ids

let print_spec (level, ids) =
  Printf.sprintf "%d@[%s]" level (String.concat "," (List.map string_of_int ids))

let arbitrary_level =
  let ids =
    QCheck.Gen.(
      oneof
        [ list_size (int_range 1 6) (int_bound 12);
          list_size (int_range 15 30) (int_bound 40);
          int_range 19 21 >|= fun k -> List.init k (fun i -> 2 * i) ])
  in
  QCheck.make ~print:print_spec QCheck.Gen.(pair (int_bound 2) ids)

let merge_reference_property =
  QCheck.Test.make ~count:500 ~name:"merge equals the capped-union reference"
    QCheck.(pair arbitrary_level arbitrary_level)
    (fun (sa, sb) ->
      let a = level_of_spec sa and b = level_of_spec sb in
      level_view a = model_of_spec sa
      && level_view (P.Level.merge a b)
         = reference_merge (level_view a) (level_view b))

let merge_laws_property =
  QCheck.Test.make ~count:500
    ~name:"merge is commutative and associative, bottom its identity"
    QCheck.(triple arbitrary_level arbitrary_level arbitrary_level)
    (fun (sa, sb, sc) ->
      let a = level_of_spec sa
      and b = level_of_spec sb
      and c = level_of_spec sc in
      let open P.Level in
      level_view (merge a b) = level_view (merge b a)
      && level_view (merge (merge a b) c) = level_view (merge a (merge b c))
      && level_view (merge bottom a) = level_view a
      && level_view (merge a bottom) = level_view a)

(* [merge]'s one-cons path: a node newer than every node of a view at
   its level is appended, up to the cap, past which the view is
   unknown. *)
let test_level_push () =
  let open P.Level in
  let view k =
    List.fold_left
      (fun acc node -> merge acc (of_node ~level:2 ~node))
      bottom (List.init k Fun.id)
  in
  let ids = Alcotest.(check (list int)) in
  let v = view 3 in
  ids "appended" [ 0; 1; 2; 7 ]
    (provenance (merge v (of_node ~level:2 ~node:7)));
  ids "appended from the left" [ 0; 1; 2; 7 ]
    (provenance (merge (of_node ~level:2 ~node:7) v));
  checkb "a held node returns the view" true
    (merge v (of_node ~level:2 ~node:1) == v);
  checkb "the newest held node returns the view" true
    (merge v (of_node ~level:2 ~node:2) == v);
  checkb "a lower level returns the view" true
    (merge v (of_node ~level:1 ~node:9) == v);
  let full = merge (view 19) (of_node ~level:2 ~node:30) in
  checki "20 kept" 20 (List.length (provenance full));
  checki "size" 20 full.size;
  let over = merge full (of_node ~level:2 ~node:31) in
  ids "21 is unknown" [] (provenance over);
  checki "overflow keeps the level" 2 (level over);
  checkb "unknown absorbs" true
    (merge over (of_node ~level:2 ~node:32) == over);
  checki "unknown is never excluded" 2 (excluding ~node:31 over)

(* [merge] against the reference model, on pairs aimed at both of its
   paths: [a] is folded from distinct ids, ascending (every step a
   cons) or shuffled; [b] is either newer than all of [a] (often one
   node: the cons path) or drawn among [a]'s ids and a few above.
   Sizes run around the cap, and levels are equal or not.  Level,
   provenance as a set and [excluding] must agree with the model, the
   size field must be the provenance's length, and a result equal to
   an input must be that input. *)
let arbitrary_merge_pair =
  let open QCheck.Gen in
  let size = oneof [ int_range 1 6; oneofl [ 19; 20; 21 ] ] in
  let ids ~lo ~span k =
    shuffle_l (List.init span (fun i -> lo + i)) >|= fun l ->
    List.filteri (fun i _ -> i < k) l
  in
  let gen =
    size >>= fun ka ->
    ids ~lo:0 ~span:48 ka >>= fun a ->
    bool >>= fun sorted ->
    let order l = if sorted then List.sort compare l else l in
    let top = List.fold_left max 0 a in
    bool >>= fun newest ->
    (if newest then oneof [ return 1; size ] >>= ids ~lo:(top + 1) ~span:30
     else size >>= ids ~lo:0 ~span:(max 30 (top + 6)))
    >>= fun b ->
    oneof
      [ (int_range 1 2 >|= fun l -> (l, l));
        (int_bound 3 >>= fun la ->
         int_range 1 3 >|= fun d -> (la, (la + d) mod 4)) ]
    >|= fun (la, lb) -> ((la, order a), (lb, order b))
  in
  QCheck.make ~print:(fun (a, b) -> print_spec a ^ " + " ^ print_spec b) gen

let merge_model_property =
  QCheck.Test.make ~count:1000 ~name:"merge matches the model on both paths"
    arbitrary_merge_pair (fun (sa, sb) ->
      let a = level_of_spec sa and b = level_of_spec sb in
      let ((level, prov) as expect) =
        reference_merge (model_of_spec sa) (model_of_spec sb)
      in
      let r = P.Level.merge a b in
      let model_excluding node =
        match prov with [ n ] when n = node -> 0 | _ -> level
      in
      P.Level.level r = level
      && List.sort_uniq compare (P.Level.provenance r) = prov
      && r.P.Level.size = List.length (P.Level.provenance r)
      && List.for_all
           (fun node -> P.Level.excluding ~node r = model_excluding node)
           (99 :: (snd sa @ snd sb))
      && (expect <> level_view a || r == a || r == b)
      && (expect <> level_view b || r == b || r == a))

(* Itbl against a [Hashtbl] model, through growth from the smallest
   table: keys clustered (consecutive) and far apart (a megabyte and a
   gigabyte away, negative too), lookups of bound and unbound keys. *)
let itbl_model_property =
  let key =
    QCheck.Gen.(
      oneof
        [ int_bound 40;
          map (fun i -> (1 lsl 20) + i) (int_bound 40);
          map (fun i -> (1 lsl 30) + (i * 4096)) (int_bound 40);
          map (fun i -> -1 - i) (int_bound 40) ])
  in
  let op = QCheck.Gen.(pair bool (pair key small_nat)) in
  QCheck.Test.make ~count:300 ~name:"itbl matches a Hashtbl model"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) op))
    (fun ops ->
      let t = P.Itbl.create ~absent:(-1) 0 in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (write, (k, v)) ->
          if write then begin
            P.Itbl.replace t k v;
            Hashtbl.replace model k v
          end;
          P.Itbl.find t k
          = Option.value ~default:(-1) (Hashtbl.find_opt model k))
        ops
      && Hashtbl.fold (fun k v ok -> ok && P.Itbl.find t k = v) model true)

let test_itbl_reserved_key () =
  let t = P.Itbl.create ~absent:0 4 in
  checki "min_int is unbound" 0 (P.Itbl.find t min_int);
  Alcotest.check_raises "min_int rejected"
    (Invalid_argument "Itbl.replace: min_int is not a valid key") (fun () ->
      P.Itbl.replace t min_int 1)

(* Config *)

let test_config_validation () =
  Alcotest.match_raises "tracking gran too small"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (P.Config.make ~track_gran:4 P.Config.Epoch));
  Alcotest.match_raises "non power of two"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (P.Config.make ~persist_gran:24 P.Config.Epoch))

let test_config_names () =
  List.iter
    (fun mode ->
      checkb "name roundtrip" true
        (P.Config.mode_of_name (P.Config.mode_name mode) = Some mode))
    P.Config.all_modes;
  checkb "unknown name" true (P.Config.mode_of_name "bogus" = None)

(* Dag *)

(* The graph of [(u, v)] edges, "u before v", over nodes [0 .. n-1]. *)
let dag_of (n, edges) =
  let preds = Array.make n [] in
  List.iter (fun (u, v) -> preds.(v) <- u :: preds.(v)) edges;
  P.Dag.of_preds (Array.map Array.of_list preds)

let diamond () = P.Dag.of_preds [| [||]; [| 0 |]; [| 0 |]; [| 1; 2 |] |]

let test_dag_topo () =
  let g = diamond () in
  checkb "acyclic" false (P.Dag.has_cycle g);
  (match P.Dag.topo_sort g with
  | None -> Alcotest.fail "expected topo order"
  | Some order ->
    let pos = Array.make 4 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    checkb "0 before 1" true (pos.(0) < pos.(1));
    checkb "1 before 3" true (pos.(1) < pos.(3));
    checkb "2 before 3" true (pos.(2) < pos.(3)));
  let c = dag_of (2, [ (0, 1); (1, 0) ]) in
  checkb "cycle" true (P.Dag.has_cycle c);
  checkb "no topo for cycle" true (P.Dag.topo_sort c = None)

let test_dag_reach_ancestors () =
  let g = diamond () in
  let r = P.Dag.reachable_from g 1 in
  checkb "1 reaches 3" true r.(3);
  checkb "1 not 2" false r.(2);
  checkb "reflexive" true r.(1);
  checkb "ancestors of 3" true
    (P.Iset.equal (P.Dag.ancestors g 3) (P.Iset.of_list [ 0; 1; 2 ]));
  checkb "ancestors of 0 empty" true (P.Iset.is_empty (P.Dag.ancestors g 0))

let test_dag_down_closed () =
  let g = diamond () in
  checkb "closed set" true (P.Dag.is_down_closed g (P.Iset.of_list [ 0; 1 ]));
  checkb "not closed" false (P.Dag.is_down_closed g (P.Iset.of_list [ 1 ]));
  checkb "closure" true
    (P.Iset.equal
       (P.Dag.down_closure g (P.Iset.singleton 3))
       (P.Iset.of_list [ 0; 1; 2; 3 ]));
  checki "all cuts of diamond" 6 (List.length (P.Dag.all_down_closed g))

let test_dag_random_down_closed () =
  let g = diamond () in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 100 do
    let s = P.Dag.random_down_closed g rng in
    checkb "random cut is legal" true (P.Dag.is_down_closed g s)
  done;
  let s = P.Dag.random_down_closed ~size:2 g rng in
  checki "size honored" 2 (P.Iset.cardinal s)

(* An id outside [0 .. n-1] is rejected with the same message wherever
   it appears: in a cut to check or in a predecessor list. *)
let out_of_range what f =
  Alcotest.check_raises what (Invalid_argument "Dag: node out of range")
    (fun () -> ignore (f ()))

let test_dag_out_of_range () =
  let g = diamond () in
  out_of_range "negative id" (fun () ->
      P.Dag.is_down_closed g (P.Iset.of_list [ -1; 0 ]));
  out_of_range "id = n" (fun () ->
      P.Dag.is_down_closed g (P.Iset.of_list [ 0; 4 ]));
  out_of_range "of_preds" (fun () -> P.Dag.of_preds [| [| 1 |] |])

let same_cuts a b = List.equal P.Iset.equal a b

(* Down-closure as every member's predecessors being members, over
   the raw edge list; [Dag.is_down_closed] walks the complement's
   successors instead. *)
let naive_closed edges set =
  List.for_all
    (fun (u, v) -> (not (P.Iset.mem v set)) || P.Iset.mem u set)
    edges

(* The exhaustive scan [all_down_closed] replaced, kept as its oracle:
   every subset of [0 .. n-1] in descending bitmask order, filtered. *)
let naive_down_closed (n, edges) =
  List.filter (naive_closed edges)
    (List.init (1 lsl n) (fun i ->
         let mask = (1 lsl n) - 1 - i in
         P.Iset.of_list
           (List.filter
              (fun v -> mask land (1 lsl v) <> 0)
              (List.init n Fun.id))))

let test_dag_cut_order () =
  let sets = List.map P.Iset.of_list in
  let g = diamond () in
  checkb "diamond cuts, descending bitmask" true
    (same_cuts (P.Dag.all_down_closed g)
       (sets [ [ 0; 1; 2; 3 ]; [ 0; 1; 2 ]; [ 0; 2 ]; [ 0; 1 ]; [ 0 ]; [] ]));
  (* a coalesced node can depend on a later one: 0 <-> 1, 2 free *)
  let spec = (3, [ (0, 1); (1, 0) ]) in
  let c = dag_of spec in
  checkb "2-cycle cuts" true
    (same_cuts (P.Dag.all_down_closed c)
       (sets [ [ 0; 1; 2 ]; [ 2 ]; [ 0; 1 ]; [] ]));
  checkb "2-cycle matches the brute filter" true
    (same_cuts (P.Dag.all_down_closed c) (naive_down_closed spec))

let print_digraph (n, edges) =
  Printf.sprintf "%d nodes: %s" n
    (String.concat " "
       (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges))

(* Random graphs of at most [max_n] nodes.  Random edges make cycles
   common, repeated edges too; [self] admits self-loops. *)
let arbitrary_digraph ~max_n ~self =
  let gen =
    QCheck.Gen.(
      int_range 0 max_n >>= fun n ->
      if n = 0 then return (0, [])
      else
        let node = int_bound (n - 1) in
        list_size (int_range 0 (2 * n)) (pair node node) >|= fun edges ->
        (n, if self then edges else List.filter (fun (u, v) -> u <> v) edges))
  in
  QCheck.make ~print:print_digraph gen

let arbitrary_dag = arbitrary_digraph ~max_n:12 ~self:true

let all_down_closed_property =
  QCheck.Test.make ~count:300 ~name:"all_down_closed matches the mask scan"
    arbitrary_dag (fun spec ->
      same_cuts (P.Dag.all_down_closed (dag_of spec)) (naive_down_closed spec))

let of_preds_property =
  QCheck.Test.make ~count:200 ~name:"of_preds keeps each edge once"
    arbitrary_dag (fun ((n, edges) as spec) ->
      let g = dag_of spec in
      let ends f v = List.sort_uniq compare (List.filter_map (f v) edges) in
      let sources v (u, w) = if w = v then Some u else None in
      let targets v (u, w) = if u = v then Some w else None in
      P.Dag.node_count g = n
      && List.for_all
           (fun v ->
             P.Dag.preds g v = ends sources v
             && P.Dag.succs g v = ends targets v)
           (List.init n Fun.id))

let is_down_closed_property =
  QCheck.Test.make ~count:300
    ~name:"is_down_closed matches the predecessor form"
    QCheck.(pair arbitrary_dag int)
    (fun (((n, edges) as spec), bits) ->
      let g = dag_of spec in
      let set =
        P.Iset.of_list
          (List.filter
             (fun v -> bits land (1 lsl v) <> 0)
             (List.init n Fun.id))
      in
      List.for_all
        (fun s -> P.Dag.is_down_closed g s = naive_closed edges s)
        [ set; P.Dag.down_closure g set ])

(* [random_down_closed] as it was when it grew the cut with [Iset.add]:
   the same rng draws must still give the same cuts. *)
let reference_draw ?size g rng =
  let n = P.Dag.node_count g in
  let target =
    match size with Some k -> min k n | None -> Random.State.int rng (n + 1)
  in
  let indeg = Array.init n (fun v -> List.length (P.Dag.preds g v)) in
  let ready = Memsim.Vec.create () in
  Array.iteri (fun v d -> if d = 0 then Memsim.Vec.push ready v) indeg;
  let taken = ref P.Iset.empty in
  while P.Iset.cardinal !taken < target && not (Memsim.Vec.is_empty ready) do
    let v =
      Memsim.Vec.swap_remove ready
        (Random.State.int rng (Memsim.Vec.length ready))
    in
    taken := P.Iset.add v !taken;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Memsim.Vec.push ready w)
      (P.Dag.succs g v)
  done;
  !taken

let random_down_closed_property =
  QCheck.Test.make ~count:300 ~name:"random_down_closed keeps its draws"
    QCheck.(triple arbitrary_dag small_nat (option small_nat))
    (fun (spec, seed, size) ->
      let g = dag_of spec in
      let a = Random.State.make [| seed |] in
      let b = Random.State.make [| seed |] in
      List.for_all
        (fun _ ->
          P.Iset.equal
            (P.Dag.random_down_closed ?size g a)
            (reference_draw ?size g b))
        (List.init 5 Fun.id))

(* Naive fixpoints over the raw edge list: [grow edges set] adds [v]
   for every edge [u -> v] with [u] in [set] until nothing changes;
   flip the edges to walk backwards. *)
let rec grow edges set =
  let set' =
    List.fold_left
      (fun s (u, v) -> if P.Iset.mem u s then P.Iset.add v s else s)
      set edges
  in
  if P.Iset.equal set set' then set else grow edges set'

let flip edges = List.map (fun (u, v) -> (v, u)) edges

(* [v] lies on a cycle iff it is reachable from one of its successors. *)
let naive_on_cycle edges v =
  P.Iset.mem v
    (grow edges (P.Iset.of_list (List.filter_map
       (fun (u, w) -> if u = v then Some w else None) edges)))

(* Graphs of at most 10 nodes without self-loops, cycles allowed,
   against the naive definitions above. *)
let arbitrary_small = arbitrary_digraph ~max_n:10 ~self:false

let naive_reach_property =
  QCheck.Test.make ~count:300
    ~name:"reach, ancestors, closure, topo and cycles match naive fixpoints"
    QCheck.(pair arbitrary_small int)
    (fun (((n, edges) as spec), bits) ->
      let g = dag_of spec in
      let nodes = List.init n Fun.id in
      let set =
        P.Iset.of_list (List.filter (fun v -> bits land (1 lsl v) <> 0) nodes)
      in
      let cyclic = List.exists (naive_on_cycle edges) nodes in
      let reach_ok v =
        let r = P.Dag.reachable_from g v in
        let naive = grow edges (P.Iset.singleton v) in
        List.for_all (fun w -> r.(w) = P.Iset.mem w naive) nodes
      in
      let ancestors_ok v =
        let preds = P.Iset.of_list (P.Dag.preds g v) in
        P.Iset.equal (P.Dag.ancestors g v) (grow (flip edges) preds)
      in
      let topo_ok =
        match P.Dag.topo_sort g with
        | None -> cyclic
        | Some order ->
          let pos = Array.make n (-1) in
          List.iteri (fun i v -> pos.(v) <- i) order;
          (not cyclic)
          && List.length order = n
          && Array.for_all (fun p -> p >= 0) pos
          && List.for_all (fun (u, v) -> pos.(u) < pos.(v)) edges
      in
      List.for_all reach_ok nodes
      && List.for_all ancestors_ok nodes
      && P.Iset.equal (P.Dag.down_closure g set) (grow (flip edges) set)
      && P.Dag.has_cycle g = cyclic
      && topo_ok)

(* Every draw is down-closed, and [~size:k] takes min k of the nodes
   not on or behind a cycle. *)
let naive_draws_property =
  QCheck.Test.make ~count:300 ~name:"draws are legal and take every free node"
    QCheck.(triple arbitrary_small small_nat small_nat)
    (fun (((n, edges) as spec), seed, k) ->
      let g = dag_of spec in
      let blocked v =
        List.exists (naive_on_cycle edges)
          (P.Iset.elements (grow (flip edges) (P.Iset.singleton v)))
      in
      let free =
        List.length
          (List.filter (fun v -> not (blocked v)) (List.init n Fun.id))
      in
      let rng = Random.State.make [| seed |] in
      let draws = List.init 10 (fun _ -> P.Dag.random_down_closed g rng) in
      let sized = P.Dag.random_down_closed ~size:k g rng in
      List.for_all (naive_closed edges) (sized :: draws)
      && P.Iset.cardinal sized = min k free)

(* [of_preds_reduced] against the recorded DAG it reduces. *)
let reduced_of (n, edges) =
  let preds = Array.make n [] in
  List.iter (fun (u, v) -> preds.(v) <- u :: preds.(v)) edges;
  P.Dag.of_preds_reduced (Array.map Array.of_list preds)

let edges_of g =
  List.concat_map
    (fun v -> List.map (fun u -> (u, v)) (P.Dag.preds g v))
    (List.init (P.Dag.node_count g) Fun.id)

(* The same spec with every edge turned to run up a seeded random
   order of the nodes (self-loops dropped): acyclic, but, unless that
   order is the ids', with some predecessors above their node. *)
let acyclic_variant seed (n, edges) =
  let rank = Array.init n Fun.id in
  let rng = Random.State.make [| seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- t
  done;
  ( n,
    List.filter_map
      (fun (u, v) ->
        if u = v then None
        else if rank.(u) < rank.(v) then Some (u, v)
        else Some (v, u))
      edges )

(* [r] reduces [g], the DAG of [edges]: a cyclic [g] keeps its preds
   and succs; otherwise every node keeps its ancestors by naive
   fixpoint, no kept edge is implied by another predecessor, and 50
   draws from [seed] and, up to 20 nodes, every cut in order are
   equal. *)
let reduction_holds ~seed edges g r =
  let nodes = List.init (P.Dag.node_count g) Fun.id in
  if P.Dag.has_cycle g then
    List.for_all
      (fun v ->
        P.Dag.preds r v = P.Dag.preds g v && P.Dag.succs r v = P.Dag.succs g v)
      nodes
  else begin
    let kept = edges_of r in
    let ancestors edges v =
      grow (flip edges)
        (P.Iset.of_list
           (List.filter_map
              (fun (u, w) -> if w = v then Some u else None)
              edges))
    in
    (* [u -> v] is implied when [u] precedes another predecessor *)
    let implied (u, v) =
      List.exists
        (fun w -> w <> u && P.Iset.mem u (ancestors kept w))
        (P.Dag.preds r v)
    in
    let draws g =
      let rng = Random.State.make [| seed |] in
      List.init 50 (fun i ->
          let size = if i mod 2 = 0 then None else Some (i mod 7) in
          P.Dag.random_down_closed ?size g rng)
    in
    List.for_all
      (fun v -> P.Iset.equal (ancestors kept v) (ancestors edges v))
      nodes
    && (not (List.exists implied kept))
    && (List.length nodes > 20
       || same_cuts (P.Dag.all_down_closed r) (P.Dag.all_down_closed g))
    && same_cuts (draws r) (draws g)
  end

let reduced_property =
  QCheck.Test.make ~count:300
    ~name:"of_preds_reduced keeps ancestors, cuts and draws"
    QCheck.(pair arbitrary_dag small_nat)
    (fun (spec, seed) ->
      let holds ((_, edges) as spec) =
        reduction_holds ~seed edges (dag_of spec) (reduced_of spec)
      in
      holds spec && holds (acyclic_variant seed spec))

(* The same property over engine-recorded graphs: [Persist_graph.dag]
   against [Dag.of_preds] of each node's recorded [deps] and [order].
   Two-thread depth-2 queue runs under the three machines (tso-sync's
   flush+fence frontiers leave cycles), KV and the lock-free set. *)
let test_recorded_reduction () =
  let module D = Check.Driver in
  let module Pg = P.Persist_graph in
  let epoch_cfg = P.Config.make P.Config.Epoch in
  let params (f : (_, _, _, _) D.family) machine =
    f.params ~threads:2 ~depth:2 ~seed:1 machine
      (f.clean P.Config.Epoch Workloads.Queue.Epoch)
  in
  let runs =
    List.map
      (fun machine -> D.instance D.queue (params D.queue machine) epoch_cfg)
      Memsim.Machine.all_configs
    @ [ D.instance D.kv (params D.kv Memsim.Machine.sc_config) epoch_cfg;
        D.lockfree_instance
          (params D.lockfree Memsim.Machine.sc_config)
          epoch_cfg ]
  in
  let cyclic = ref 0 in
  List.iter
    (fun run ->
      List.iter
        (fun seed ->
          let graph = (run (Memsim.Machine.Random seed)).D.graph in
          let edges = ref [] in
          let preds =
            Array.init (Pg.node_count graph) (fun v ->
                let n = Pg.get graph v in
                let ps = P.Iset.elements (P.Iset.union n.Pg.deps n.Pg.order) in
                List.iter (fun u -> edges := (u, v) :: !edges) ps;
                Array.of_list ps)
          in
          let g = P.Dag.of_preds preds in
          if P.Dag.has_cycle g then incr cyclic;
          if not (reduction_holds ~seed !edges g (Pg.dag graph)) then
            Alcotest.failf "seed %d: the order of a %d-node graph differs"
              seed (Pg.node_count graph))
        [ 0; 1; 2; 3 ])
    runs;
  checkb "some recorded graph is cyclic" true (!cyclic > 0)

(* A graph wide enough for the reduction to work in three column
   blocks, under a shuffled labelling: each node keeps the ancestors it
   has in the recorded DAG, no kept edge is implied by the others, and
   draws are unchanged. *)
let test_reduced_blocks () =
  let n = 2_200 in
  let rng = Random.State.make [| 17 |] in
  let edges =
    List.concat
      (List.init n (fun v ->
           if v = 0 then []
           else
             List.init 6 (fun k ->
                 let back =
                   if k < 4 then 1 + Random.State.int rng (min v 40)
                   else 1 + Random.State.int rng v
                 in
                 (v - back, v))))
  in
  List.iter
    (fun spec ->
      let g = dag_of spec and r = reduced_of spec in
      checkb "fewer edges" true
        (List.length (edges_of r) < List.length (edges_of g));
      for u = 0 to n - 1 do
        let reach = P.Dag.reachable_from r u in
        if reach <> P.Dag.reachable_from g u then
          Alcotest.failf "node %d reaches other nodes" u;
        List.iter
          (fun v ->
            if List.exists (fun w -> w <> u && reach.(w)) (P.Dag.preds r v)
            then Alcotest.failf "kept edge %d -> %d is implied" u v)
          (P.Dag.succs r u)
      done;
      List.iter
        (fun seed ->
          let a = Random.State.make [| seed |]
          and b = Random.State.make [| seed |] in
          for _ = 1 to 10 do
            checkb "same draw" true
              (P.Iset.equal
                 (P.Dag.random_down_closed r a)
                 (P.Dag.random_down_closed g b))
          done)
        [ 0; 1; 2 ])
    [ (n, edges); acyclic_variant 3 (n, edges) ]

let test_dag_too_big () =
  Alcotest.match_raises "all_down_closed bound"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore (P.Dag.all_down_closed (P.Dag.of_preds (Array.make 25 [||]))))

(* Engine: strict persistency *)

let test_strict_serializes () =
  checki "two addresses chain" 2 (cp ~cfg:strict [ st 8; st 16 ]);
  checki "three chain" 3 (cp ~cfg:strict [ st 8; st 16; st 24 ]);
  checki "loads order too" 3 (cp ~cfg:strict [ st 8; ld 8; st 16; st 24 ])

let test_strict_same_address_coalesces () =
  checki "repeated store coalesces" 1 (cp ~cfg:strict [ st 8; st 8; st 8 ]);
  checki "one atomic persist" 1 (ops ~cfg:strict [ st 8; st 8; st 8 ]);
  (* an intervening persist to another address breaks coalescing *)
  checki "interleaved" 3 (cp ~cfg:strict [ st 8; st 16; st 8 ])

let test_strict_threads_concurrent () =
  (* independent threads persist concurrently even under strict *)
  checki "two threads" 1 (cp ~cfg:strict [ st ~tid:0 8; st ~tid:1 16 ]);
  checki "per thread chains" 2
    (cp ~cfg:strict [ st ~tid:0 8; st ~tid:1 16; st ~tid:0 24; st ~tid:1 32 ])

let test_strict_conflict_orders_threads () =
  (* a load of another thread's persisted data orders later persists *)
  checki "load-store ordering" 2
    (cp ~cfg:strict [ st ~tid:0 8; ld ~tid:1 8; st ~tid:1 16 ]);
  (* without the observing load the persists are concurrent *)
  checki "no conflict no order" 1 (cp ~cfg:strict [ st ~tid:0 8; st ~tid:1 16 ])

let test_strict_ignores_barriers () =
  checki "barrier is redundant" 2 (cp ~cfg:strict [ st 8; pb 0; st 16 ]);
  checki "new strand ignored" 2 (cp ~cfg:strict [ st 8; ns 0; st 16 ])

(* Engine: epoch persistency *)

let test_epoch_intra_epoch_concurrent () =
  checki "same epoch concurrent" 1 (cp ~cfg:epoch [ st 8; st 16; st 24 ]);
  checki "three atomic persists" 3 (ops ~cfg:epoch [ st 8; st 16; st 24 ])

let test_epoch_barrier_orders () =
  checki "barrier orders" 2 (cp ~cfg:epoch [ st 8; pb 0; st 16 ]);
  checki "epochs chain" 3 (cp ~cfg:epoch [ st 8; pb 0; st 16; pb 0; st 24 ]);
  checki "barrier also orders via loads" 2
    (cp ~cfg:epoch [ st ~tid:0 8; ld ~tid:1 8; pb 1; st ~tid:1 16 ])

let test_epoch_load_without_barrier () =
  (* rule 2 orders the load after the persist, but without a barrier
     the loading thread's next persist is unordered *)
  checki "no barrier no order" 1
    (cp ~cfg:epoch [ st ~tid:0 8; ld ~tid:1 8; st ~tid:1 16 ])

let test_epoch_strong_persist_atomicity () =
  (* same-address persists are always ordered, even across racing
     epochs; coalescing keeps the critical path at 1 *)
  checki "same address coalesces" 1 (cp ~cfg:epoch [ st ~tid:0 8; st ~tid:1 8 ]);
  checki "single node" 1 (ops ~cfg:epoch [ st ~tid:0 8; st ~tid:1 8 ]);
  (* when the second writer has observed more, it cannot coalesce *)
  checki "ordered chain" 2
    (cp ~cfg:epoch [ st ~tid:0 8; st ~tid:1 16; pb 1; st ~tid:1 8 ])

let test_epoch_volatile_conflicts_order () =
  (* lock-style publication through a volatile word orders persists
     across threads: the paper's conservative epoch placement *)
  checki "volatile handoff orders" 2
    (cp ~cfg:epoch
       [ st ~tid:0 8; pb 0; st ~tid:0 (vb + 8); ld ~tid:1 (vb + 8); pb 1;
         st ~tid:1 16 ])

let test_epoch_rmw_conflicts () =
  (* RMW acts as both load and store for conflict propagation *)
  checki "rmw observes" 2
    (cp ~cfg:epoch
       [ st ~tid:0 8; pb 0; rmw ~tid:0 (vb + 8); rmw ~tid:1 (vb + 8); pb 1;
         st ~tid:1 16 ])

let test_epoch_closed_node_no_coalesce () =
  (* once a persist depends on node A, A accepts no more writes *)
  checki "open coalesces" 1 (cp ~cfg:epoch [ st ~tid:0 8; st ~tid:1 8 ]);
  checki "closed after dependent" 2
    (cp ~cfg:epoch [ st ~tid:0 8; pb 0; st ~tid:0 16; st ~tid:1 8 ]);
  checki "two nodes on the address" 3
    (ops ~cfg:epoch [ st ~tid:0 8; pb 0; st ~tid:0 16; st ~tid:1 8 ])

(* Engine: strand persistency *)

let test_strand_new_strand_clears () =
  checki "barrier orders within strand" 2 (cp ~cfg:strand [ st 8; pb 0; st 16 ]);
  checki "new strand clears" 1 (cp ~cfg:strand [ st 8; ns 0; pb 0; st 16 ]);
  checki "strands are like threads" 1
    (cp ~cfg:strand [ st 8; pb 0; ns 0; st 16 ])

let test_strand_atomicity_still_orders () =
  (* reading a persisted location then barriering orders the strand
     after it: the paper's minimal-ordering idiom *)
  checki "read-barrier idiom" 2
    (cp ~cfg:strand [ st 8; ns 0; ld 8; pb 0; st 16 ]);
  checki "read without barrier does not order" 1
    (cp ~cfg:strand [ st 8; ns 0; ld 8; st 16 ])

let test_strand_epoch_equivalence_without_ns () =
  (* with no NewStrand events, strand persistency equals epoch *)
  let events = [ st 8; pb 0; st 16; st 24; pb 0; st 8 ] in
  checki "same critical path" (cp ~cfg:epoch events) (cp ~cfg:strand events);
  checki "same ops" (ops ~cfg:epoch events) (ops ~cfg:strand events)

(* Engine: strict persistency under relaxed consistency *)

let strict_tso = P.Config.make ~consistency:P.Config.Tso P.Config.Strict
let strict_rmo = P.Config.make ~consistency:P.Config.Rmo P.Config.Strict

let test_strict_tso_stores_serialize () =
  (* TSO does not relax store→store order: persists still chain *)
  checki "stores chain" 3 (cp ~cfg:strict_tso [ st 8; st 16; st 24 ]);
  checki "same as SC" (cp ~cfg:strict [ st 8; st 16; st 24 ])
    (cp ~cfg:strict_tso [ st 8; st 16; st 24 ])

let test_strict_tso_loads_drift () =
  (* a load may be reordered before an earlier store: it does not carry
     the store's persist level into a conflicting write *)
  let events = [ st ~tid:0 8; ld ~tid:0 16; st ~tid:1 16 ] in
  checki "sc orders via the load" 2 (cp ~cfg:strict events);
  checki "tso lets the load drift" 1 (cp ~cfg:strict_tso events);
  (* a fence restores the ordering *)
  let fenced = [ st ~tid:0 8; pb 0; ld ~tid:0 16; st ~tid:1 16 ] in
  checki "fence orders" 2 (cp ~cfg:strict_tso fenced);
  (* loads stay ordered with loads: ld -> ld -> conflicting store *)
  let ld_chain = [ st ~tid:0 8; ld ~tid:1 8; ld ~tid:1 16; st ~tid:2 16 ] in
  checki "ld-ld preserved" 2 (cp ~cfg:strict_tso ld_chain)

let test_strict_tso_rmw_ordered () =
  (* atomic RMWs do not drift *)
  let events = [ st ~tid:0 8; rmw ~tid:0 16; st ~tid:1 16 ] in
  checki "rmw carries order" 2 (cp ~cfg:strict_tso events)

let test_strict_rmo_reorders_persists () =
  (* under RMO, same-thread persists are concurrent up to fences — the
     paper's "many persists from the same thread in parallel" *)
  checki "concurrent" 1 (cp ~cfg:strict_rmo [ st 8; st 16; st 24 ]);
  checki "fence orders" 2 (cp ~cfg:strict_rmo [ st 8; pb 0; st 16 ]);
  (* same-address persists still serialize (coalesce) *)
  checki "atomicity" 1 (ops ~cfg:strict_rmo [ st 8; st 8 ])

let test_strict_rmo_equals_epoch_without_strands () =
  (* with fences at the same points as persist barriers, strict/RMO and
     epoch persistency impose the same persist order *)
  let events =
    [ st ~tid:0 8; st ~tid:0 16; pb 0; st ~tid:0 24; ld ~tid:1 24; pb 1;
      st ~tid:1 32 ]
  in
  checki "same critical path" (cp ~cfg:epoch events) (cp ~cfg:strict_rmo events);
  checki "same ops" (ops ~cfg:epoch events) (ops ~cfg:strict_rmo events)

(* The repo has two TSO notions, and neither derives from the other.
   The engine's [Config.consistency = Tso] relaxes persist order over a
   given trace (strict persistency under TSO, Section 5.1); the
   machine's [Memsim.Machine.Tso] decides which trace a run yields.
   Program: T0 [st x; ld y], T1 [st y], x and y persistent, the load
   reading 0 in every run below. *)
let test_two_tso_notions () =
  let x = 8 and y = 16 in
  let sc_trace = [ st ~tid:0 x; ld ~tid:0 y ~value:0L; st ~tid:1 y ] in
  checki "engine strict/sc" 2 (cp ~cfg:strict sc_trace);
  checki "engine strict/tso" 1 (cp ~cfg:strict_tso sc_trace);
  checki "engine strict/rmo" 1 (cp ~cfg:strict_rmo sc_trace);
  let machine_tso seed =
    let memory = Memsim.Memory.create () in
    let m =
      Memsim.Machine.create ~policy:(Memsim.Machine.Random seed)
        ~model:Memsim.Machine.Tso ~memory ()
    in
    let read = ref (-1L) in
    ignore
      (Memsim.Machine.spawn m (fun () ->
           Memsim.Machine.store x 1L;
           read := Memsim.Machine.load y));
    ignore (Memsim.Machine.spawn m (fun () -> Memsim.Machine.store y 1L));
    let trace = Memsim.Trace.create () in
    Memsim.Machine.set_sink m (Memsim.Trace.sink trace);
    Memsim.Machine.run m;
    Alcotest.(check int64) "load reads 0" 0L !read;
    Memsim.Trace.to_list trace
  in
  let show = List.map E.to_string in
  (* Random 0 drains T0's store before its load: the machine yields the
     SC trace itself, on which strict/sc keeps the order strict/tso
     drops *)
  let drained_first = machine_tso 0 in
  Alcotest.(check (list string)) "store drains first" (show sc_trace)
    (show drained_first);
  checki "machine tso, store drains first, strict/sc" 2
    (cp ~cfg:strict drained_first);
  (* Random 1 drains it after the load *)
  checki "machine tso, load first, strict/sc" 1
    (cp ~cfg:strict (machine_tso 1))

(* Engine: ablation flags *)

let test_tso_misses_load_before_store () =
  let events = [ st ~tid:0 8; pb 0; ld ~tid:0 16; st ~tid:1 16 ] in
  (* SC: the load of 16 carries thread 0's persist level into the
     conflicting store *)
  checki "sc orders" 2 (cp ~cfg:epoch events);
  let tso = P.Config.make ~tso_conflicts:true P.Config.Epoch in
  checki "tso misses it" 1 (cp ~cfg:tso events)

let test_persistent_only_conflicts () =
  let events =
    [ st ~tid:0 8; pb 0; st ~tid:0 (vb + 8); ld ~tid:1 (vb + 8); pb 1;
      st ~tid:1 16 ]
  in
  checki "volatile conflict orders" 2 (cp ~cfg:epoch events);
  let ponly = P.Config.make ~persistent_only_conflicts:true P.Config.Epoch in
  checki "persistent-only misses it" 1 (cp ~cfg:ponly events)

let test_tracking_granularity_false_sharing () =
  let events = [ st ~tid:0 16; st ~tid:1 24 ] in
  checki "fine tracking: concurrent" 1 (cp events);
  let coarse = P.Config.make ~track_gran:16 P.Config.Epoch in
  (* 16 and 24 share a 16-byte tracked block but distinct atomic
     blocks: false sharing orders the second persist after the first *)
  checki "coarse tracking: ordered" 2 (cp ~cfg:coarse events)

let test_persist_granularity_coalescing () =
  let events = [ st 16; st 24 ] in
  checki "8B atomic: two persists" 2 (ops events);
  let coarse = P.Config.make ~persist_gran:16 P.Config.Epoch in
  checki "16B atomic: one persist" 1 (ops ~cfg:coarse events);
  checki "critical path 1 either way" 1 (cp ~cfg:coarse events)

let test_coalescing_disabled () =
  let nc = P.Config.make ~coalescing:false P.Config.Epoch in
  checki "chained same-address persists" 3 (cp ~cfg:nc [ st 8; st 8; st 8 ]);
  checki "three nodes" 3 (ops ~cfg:nc [ st 8; st 8; st 8 ]);
  checki "with coalescing: one" 1 (ops [ st 8; st 8; st 8 ])

let test_subword_persists_coalesce () =
  (* two 4-byte persists to halves of one 8-byte word form one atomic
     persist — the COPY tail pattern of the queue *)
  let events = [ st ~size:4 8; st ~size:4 12 ] in
  checki "coalesce within the word" 1 (ops events);
  checki "critical path" 1 (cp events);
  (* a 1-byte overwrite of a persisted byte also coalesces *)
  checki "byte overwrite" 1 (ops [ st 8; st ~size:1 8 ])

let test_subword_within_block_atomic () =
  (* graph: the coalesced word persist carries both writes and applies
     them in store order *)
  let c = P.Config.make ~record_graph:true P.Config.Epoch in
  let e = engine_of ~cfg:c [ st ~value:0x1111111122222222L 8; st ~size:4 ~value:0xAAAABBBBL 8 ] in
  let g = Option.get (P.Engine.graph e) in
  checki "one node" 1 (P.Persist_graph.node_count g);
  let image = P.Observer.final_image g ~capacity:16 in
  Alcotest.(check int64) "low half overwritten" 0x11111111AAAABBBBL
    (Bytes.get_int64_le image 8)

let test_cross_thread_strand_concurrency () =
  (* strands on different threads with disjoint data are all level 1 *)
  let events =
    [ st ~tid:0 8; ns 0; st ~tid:0 16; ns 0; st ~tid:0 24;
      st ~tid:1 32; ns 1; st ~tid:1 64 ]
  in
  checki "everything level 1" 1 (cp ~cfg:strand events)

let test_deep_epoch_chain () =
  (* k barrier-separated persists form a k-level chain *)
  let k = 50 in
  let events =
    List.concat (List.init k (fun i -> [ st (8 * (i + 1)); pb 0 ]))
  in
  checki "chain of k" k (cp ~cfg:epoch events)

(* Engine: counters and labels *)

let test_engine_counters () =
  let e =
    engine_of
      [ E.Label (0, "insert"); st 8; st 8; ld 8; E.Label (0, "insert"); st 16 ]
  in
  checki "events" 6 (P.Engine.events e);
  checki "persist events" 3 (P.Engine.persist_events e);
  checki "persist ops" 2 (P.Engine.persist_ops e);
  checki "coalesced" 1 (P.Engine.coalesced e);
  checki "labels" 2 (P.Engine.label_count e "insert");
  checki "missing label" 0 (P.Engine.label_count e "none");
  Alcotest.(check (float 0.001)) "cp per label" 0.5
    (P.Engine.cp_per_label e "insert");
  checkb "nan for missing" true (Float.is_nan (P.Engine.cp_per_label e "none"))

let test_engine_volatile_stores_not_persists () =
  let e = engine_of [ st (vb + 8); ld (vb + 8); rmw (vb + 16) ] in
  checki "no persists" 0 (P.Engine.persist_events e);
  checki "no critical path" 0 (P.Engine.critical_path e)

(* Thread ids index the engine's per-thread array: an event whose id is
   negative (which [Event.of_string] accepts) or beyond the machine's
   thread range is rejected with a message naming the event. *)
let test_engine_rejects_bad_tid () =
  List.iter
    (fun line ->
      let ev = E.of_string line in
      let e = P.Engine.create epoch in
      match P.Engine.observe e ev with
      | () -> Alcotest.failf "%S accepted" line
      | exception Invalid_argument msg ->
        let named =
          let n = String.length line and m = String.length msg in
          let rec at i = i + n <= m && (String.sub msg i n = line || at (i + 1)) in
          at 0
        in
        if not named then Alcotest.failf "message %S does not name %S" msg line)
    [ "st -1 8 8 1"; "ld -7 8 8 0"; "pb -1"; "fl clwb -2 8"; "lb -1 insert";
      "st 65536 8 8 1" ];
  let e = P.Engine.create epoch in
  P.Engine.observe e (E.of_string "st 65535 8 8 1");
  checki "the largest thread id is accepted" 1 (P.Engine.persist_events e)

(* Persist graph *)

let graph_of gcfg events =
  let gcfg = { gcfg with P.Config.record_graph = true } in
  let e = engine_of ~cfg:gcfg events in
  (e, Option.get (P.Engine.graph e))

let test_graph_structure () =
  let _, g = graph_of epoch [ st 8; pb 0; st 16; st 8 ] in
  checki "nodes" 3 (P.Persist_graph.node_count g);
  let n1 = P.Persist_graph.get g 1 in
  checkb "16 depends on 8" true (P.Iset.mem 0 n1.P.Persist_graph.deps);
  let n2 = P.Persist_graph.get g 2 in
  checkb "second store to 8 is ordered" true (n2.P.Persist_graph.level >= 2)

let test_graph_coalesced_writes_merge () =
  let _, g = graph_of epoch [ st ~value:1L 8; st ~value:2L 8 ] in
  checki "one node" 1 (P.Persist_graph.node_count g);
  checki "two writes" 2
    (Memsim.Vec.length (P.Persist_graph.get g 0).P.Persist_graph.writes)

let test_graph_node_mapping () =
  let e, _ = graph_of epoch [ st 8; st 8; st 16 ] in
  checki "event 0 node" 0 (P.Engine.node_of_persist_event e 0);
  checki "event 1 coalesced into 0" 0 (P.Engine.node_of_persist_event e 1);
  checki "event 2 fresh" 1 (P.Engine.node_of_persist_event e 2)

(* [Persist_graph.reduce] against the engine's former quadratic
   filter, kept verbatim as the oracle: a member is dropped when
   another member lists it in its [deps]. *)
let quadratic_reduce g set =
  if P.Iset.cardinal set <= 1 then set
  else
    P.Iset.filter
      (fun m ->
        not
          (P.Iset.exists
             (fun n ->
               n <> m
               && P.Iset.mem m (P.Persist_graph.get g n).P.Persist_graph.deps)
             set))
      set

(* A script of graph edits: add a node, coalesce into an existing one,
   or form a frontier.  Ids are taken modulo the current node count.
   After every step each frontier formed so far is reduced both ways,
   so frontiers are reduced again after their members gain deps through
   [coalesce_into], and after the graph has grown past the size of the
   scratch arrays the previous call allocated. *)
type graph_step =
  | Add of int list
  | Coalesce of int * int list
  | Frontier of int list

let arbitrary_graph_script =
  let ids k = QCheck.Gen.(list_size (int_range 0 k) (int_bound 1_000)) in
  let step =
    QCheck.Gen.(
      frequency
        [ (4, map (fun d -> Add d) (ids 6));
          (2, map2 (fun i d -> Coalesce (i, d)) (int_bound 1_000) (ids 6));
          (2, map (fun f -> Frontier f) (ids 12)) ])
  in
  let print script =
    let l d = String.concat "," (List.map string_of_int d) in
    String.concat "; "
      (List.map
         (function
           | Add d -> Printf.sprintf "add [%s]" (l d)
           | Coalesce (i, d) -> Printf.sprintf "coalesce %d [%s]" i (l d)
           | Frontier f -> Printf.sprintf "frontier [%s]" (l f))
         script)
  in
  QCheck.make ~print QCheck.Gen.(list_size (int_range 1 80) step)

let reduce_property =
  QCheck.Test.make ~count:300 ~name:"reduce equals the quadratic filter"
    arbitrary_graph_script (fun script ->
      let g = P.Persist_graph.create () in
      let write = { P.Persist_graph.addr = 8; size = 8; value = 1L } in
      let frontiers = ref [] in
      List.for_all
        (fun step ->
          let n = P.Persist_graph.node_count g in
          let ids l = P.Iset.of_list (List.map (fun i -> i mod n) l) in
          (match step with
          | Add d ->
            let deps = if n = 0 then P.Iset.empty else ids d in
            ignore (P.Persist_graph.add_node g ~tid:0 ~level:0 ~deps write)
          | Coalesce (i, d) ->
            if n > 0 then
              P.Persist_graph.coalesce_into g (i mod n) ~deps:(ids d) write
          | Frontier f -> if n > 0 then frontiers := ids f :: !frontiers);
          List.for_all
            (fun f ->
              P.Iset.equal (P.Persist_graph.reduce g f) (quadratic_reduce g f))
            !frontiers)
        script)

(* [Persist_graph.dag] is built once and kept, until a later
   [add_node] or [coalesce_into] changes the graph. *)
let test_graph_dag_tracks_edits () =
  let module Pg = P.Persist_graph in
  let g = Pg.create () in
  let write value = { Pg.addr = 8; size = 8; value } in
  let preds v = P.Dag.preds (Pg.dag g) v in
  let a = Pg.add_node g ~tid:0 ~level:1 ~deps:P.Iset.empty (write 1L) in
  let b = Pg.add_node g ~tid:1 ~level:1 ~deps:P.Iset.empty (write 2L) in
  let first = Pg.dag g in
  checki "two nodes" 2 (P.Dag.node_count first);
  checkb "kept" true (Pg.dag g == first);
  let c =
    Pg.add_node g ~tid:0 ~level:2 ~deps:(P.Iset.singleton a) (write 3L)
  in
  checki "added node" 3 (P.Dag.node_count (Pg.dag g));
  Alcotest.(check (list int)) "added edge" [ a ] (preds c);
  Pg.coalesce_into g b ~deps:(P.Iset.singleton a) (write 4L);
  Alcotest.(check (list int)) "coalesced dep" [ a ] (preds b);
  Pg.coalesce_into g c ~deps:P.Iset.empty ~order:(P.Iset.singleton b)
    (write 5L);
  (* a -> b -> c now implies a -> c *)
  Alcotest.(check (list int)) "coalesced order, reduced" [ b ] (preds c);
  checkb "ancestors" true
    (P.Iset.equal (P.Iset.of_list [ a; b ]) (P.Dag.ancestors (Pg.dag g) c))

(* The critical chain steps to a dependence created after its
   dependent, and it follows [deps] only: a cycle closed by an
   order-only edge exports, its order edge drawn dashed. *)
let test_critical_chain_edges () =
  let module Pg = P.Persist_graph in
  let write = { Pg.addr = 8; size = 8; value = 1L } in
  let g = Pg.create () in
  (* [a] gets its level-2 dependence [c] by coalescing, after [c] is
     created *)
  let a = Pg.add_node g ~tid:0 ~level:3 ~deps:P.Iset.empty write in
  let b = Pg.add_node g ~tid:1 ~level:1 ~deps:P.Iset.empty write in
  let c = Pg.add_node g ~tid:1 ~level:2 ~deps:(P.Iset.singleton b) write in
  Pg.coalesce_into g a ~deps:(P.Iset.singleton c) write;
  Alcotest.(check (list int))
    "chain" [ b; c; a ] (P.Graph_export.critical_chain g);
  let g = Pg.create () in
  let a = Pg.add_node g ~tid:0 ~level:1 ~deps:P.Iset.empty write in
  let b = Pg.add_node g ~tid:1 ~level:2 ~deps:(P.Iset.singleton a) write in
  Pg.coalesce_into g a ~deps:P.Iset.empty ~order:(P.Iset.singleton b) write;
  checkb "order edges close a cycle" true (P.Dag.has_cycle (Pg.dag g));
  Alcotest.(check (list int))
    "chain over deps" [ a; b ] (P.Graph_export.critical_chain g);
  let dot = Format.asprintf "%a" P.Graph_export.to_dot g in
  List.iter
    (fun edge ->
      checkb edge true
        (List.mem edge (String.split_on_char '\n' dot)))
    [ "  n0 -> n1 [color=red, penwidth=2.0];";
      "  n1 -> n0 [style=dashed];" ]

(* A level that is not 1 + the deepest dependence's is refused, by
   name, too deep or too shallow. *)
let test_critical_chain_level_check () =
  let module Pg = P.Persist_graph in
  let write = { Pg.addr = 8; size = 8; value = 1L } in
  let refused msg build =
    let g = Pg.create () in
    build g;
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (P.Graph_export.critical_chain g))
  in
  refused
    "Graph_export: node 1 has level 3, not 1 + its deepest dependence's 1"
    (fun g ->
      let a = Pg.add_node g ~tid:0 ~level:1 ~deps:P.Iset.empty write in
      ignore (Pg.add_node g ~tid:0 ~level:3 ~deps:(P.Iset.singleton a) write));
  refused
    "Graph_export: node 0 has level 1, not 1 + its deepest dependence's 2"
    (fun g ->
      let a = Pg.add_node g ~tid:0 ~level:1 ~deps:P.Iset.empty write in
      let b = Pg.add_node g ~tid:1 ~level:1 ~deps:P.Iset.empty write in
      let c = Pg.add_node g ~tid:1 ~level:2 ~deps:(P.Iset.singleton b) write in
      Pg.coalesce_into g a ~deps:(P.Iset.singleton c) write)

(* The longest-path walk the chain was computed by before it read
   levels, verbatim: the reference [critical_chain] must match on every
   graph the walk accepts. *)
let reference_chain g =
  let module Pg = P.Persist_graph in
  let module Iset = P.Iset in
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
  in
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

(* Engine-recorded graphs of every family, clean and with its barrier
   dropped, at 1 and 4 threads, under every machine, Px86 mode, Table 1
   model point and engine ablation: each level is 1 + the deepest
   dependence's, and the chain equals the reference walk's wherever the
   walk accepts the graph.  Some graphs close a cycle through order
   edges, which the walk refuses; they export too. *)
let test_critical_chain_survey () =
  let module D = Check.Driver in
  let module Pg = P.Persist_graph in
  let module M = Memsim.Machine in
  let configs (p : Experiments.Run.model_point) px86 =
    let make = P.Config.make ~px86 in
    [ make p.mode;
      make ~coalescing:false p.mode;
      make ~tso_conflicts:true p.mode;
      make ~persistent_only_conflicts:true p.mode;
      make ~track_gran:64 ~persist_gran:64 p.mode ]
    @
    if p.mode = P.Config.Strict then
      [ make ~consistency:P.Config.Tso p.mode;
        make ~consistency:P.Config.Rmo p.mode ]
    else []
  in
  let graphs = ref 0 and walk_refused = ref 0 in
  let survey g =
    incr graphs;
    let level id = (Pg.get g id).Pg.level in
    Pg.iter
      (fun n ->
        let below = P.Iset.fold (fun d l -> max l (level d)) n.Pg.deps 0 in
        if n.Pg.level <> below + 1 then
          Alcotest.failf "node %d: level %d over a deepest dependence at %d"
            n.Pg.id n.Pg.level below)
      g;
    let chain = P.Graph_export.critical_chain g in
    match reference_chain g with
    | reference ->
      if chain <> reference then
        Alcotest.failf "graph %d: the chain differs from the walk's" !graphs
    | exception Invalid_argument _ -> incr walk_refused
  in
  let px86s (machine : M.mconfig) =
    P.Config.Px86_sync
    :: (if machine.persistence = M.Pbuffered then [ P.Config.Px86_buffered ]
        else [])
  in
  let each xs f = List.iter f xs in
  each D.families (fun (D.Family f) ->
  each M.all_configs (fun machine ->
  each Experiments.Run.table1_models (fun p ->
  each [ f.clean p.mode p.annotation; f.drop ] (fun variant ->
  (* (threads, policy seed) *)
  each [ (1, 0); (4, 0); (4, 1) ] (fun (threads, seed) ->
  let params = f.params ~threads ~depth:4 ~seed:1 machine variant in
  each (px86s machine) (fun px86 ->
  each (configs p px86) (fun cfg ->
  survey (D.instance f params cfg (M.Random seed)).graph)))))));
  checki "graphs" 1584 !graphs;
  checkb "some graph closes an order cycle" true (!walk_refused > 0)

(* [Graph_export.fingerprint] against a [Printf] rendering of the same
   canonical form: nodes renumbered by (tid, creation order), then per
   node its tid, level, writes, and sorted deps and order edges. *)
let reference_fingerprint g =
  let module Pg = P.Persist_graph in
  let n = Pg.node_count g in
  let order = Array.init n (fun id -> id) in
  Array.sort
    (fun a b ->
      match compare (Pg.get g a).Pg.tid (Pg.get g b).Pg.tid with
      | 0 -> compare a b
      | c -> c)
    order;
  let canon = Array.make n 0 in
  Array.iteri (fun new_id old_id -> canon.(old_id) <- new_id) order;
  let buf = Buffer.create 256 in
  Array.iter
    (fun old_id ->
      let node = Pg.get g old_id in
      Printf.bprintf buf "n%d t%d l%d:" canon.(old_id) node.Pg.tid
        node.Pg.level;
      Memsim.Vec.iter
        (fun (w : Pg.write) ->
          Printf.bprintf buf "w%d.%d=%Ld;" w.Pg.addr w.Pg.size w.Pg.value)
        node.Pg.writes;
      let sorted s =
        List.sort compare (List.map (fun d -> canon.(d)) (P.Iset.elements s))
      in
      List.iter (fun d -> Printf.bprintf buf "d%d;" d) (sorted node.Pg.deps);
      List.iter (fun d -> Printf.bprintf buf "o%d;" d) (sorted node.Pg.order);
      Buffer.add_char buf '\n')
    order;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A node: tid, level, its writes (the first creates it, the rest
   coalesce into it), and dep and order ids taken modulo the nodes
   created before it — often none. *)
let arbitrary_fingerprint_graph =
  let open QCheck.Gen in
  let value =
    oneof
      [ ui64;
        map Int64.neg ui64;
        oneofl [ 0L; -1L; Int64.min_int; Int64.max_int ] ]
  in
  let write =
    triple (int_range (-64) 4096) (oneofl [ 1; 2; 4; 8 ]) value
  in
  let ids = list_size (int_range 0 3) (int_bound 1_000) in
  let node =
    pair
      (triple (int_bound 3) (int_range (-2) 40)
         (list_size (int_range 1 3) write))
      (pair ids ids)
  in
  let print nodes =
    String.concat "; "
      (List.map
         (fun ((tid, level, ws), (deps, order)) ->
           Printf.sprintf "t%d l%d [%s] d[%s] o[%s]" tid level
             (String.concat ","
                (List.map
                   (fun (a, s, v) -> Printf.sprintf "%d.%d=%Ld" a s v)
                   ws))
             (String.concat "," (List.map string_of_int deps))
             (String.concat "," (List.map string_of_int order)))
         nodes)
  in
  QCheck.make ~print (list_size (int_range 0 12) node)

let fingerprint_reference_property =
  QCheck.Test.make ~count:300
    ~name:"fingerprint equals the Printf reference"
    arbitrary_fingerprint_graph (fun nodes ->
      let module Pg = P.Persist_graph in
      let g = Pg.create () in
      List.iter
        (fun ((tid, level, ws), (deps, order)) ->
          let n = Pg.node_count g in
          let ids l =
            if n = 0 then P.Iset.empty
            else P.Iset.of_list (List.map (fun i -> i mod n) l)
          in
          let write (addr, size, value) = { Pg.addr; size; value } in
          match ws with
          | [] -> ()
          | w :: rest ->
            let id =
              Pg.add_node g ~tid ~level ~deps:(ids deps) ~order:(ids order)
                (write w)
            in
            List.iter
              (fun w' -> Pg.coalesce_into g id ~deps:P.Iset.empty (write w'))
              rest)
        nodes;
      P.Graph_export.fingerprint g = reference_fingerprint g)

(* Observer *)

let test_observer_cut_count () =
  let _, g = graph_of epoch [ st 8; st 16; pb 0; st 24 ] in
  (* nodes a,b concurrent; c after both: cuts {} {a} {b} {ab} {abc} *)
  checki "cut count" 5
    (List.length (P.Dag.all_down_closed (P.Persist_graph.dag g)))

let test_observer_image () =
  (* the persist to 16 closes node 0, so the second store to 8 starts a
     fresh node ordered after it *)
  let _, g =
    graph_of epoch [ st ~value:1L 8; pb 0; st 16; st ~value:2L 8 ]
  in
  checki "three nodes" 3 (P.Persist_graph.node_count g);
  let full = P.Observer.final_image g ~capacity:32 in
  Alcotest.(check int64) "last writer wins" 2L (Bytes.get_int64_le full 8);
  let partial = P.Observer.image_of_cut g (P.Iset.singleton 0) ~capacity:32 in
  Alcotest.(check int64) "prefix value" 1L (Bytes.get_int64_le partial 8);
  (* a barriered same-address store may coalesce into its own
     antecedent: merging into the persist you depend on violates no
     happens-before constraint *)
  let _, g2 = graph_of epoch [ st ~value:1L 8; pb 0; st ~value:2L 8 ] in
  checki "coalesces across barrier" 1 (P.Persist_graph.node_count g2)

let test_observer_illegal_cut () =
  let _, g = graph_of epoch [ st 8; pb 0; st 16 ] in
  Alcotest.match_raises "illegal cut"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore (P.Observer.image_of_cut g (P.Iset.singleton 1) ~capacity:32))

let test_observer_out_of_range () =
  let _, g = graph_of epoch [ st 8; pb 0; st 16 ] in
  out_of_range "negative id" (fun () ->
      P.Observer.image_of_cut g (P.Iset.singleton (-1)) ~capacity:32);
  out_of_range "id = n" (fun () ->
      P.Observer.image_of_cut g (P.Iset.of_list [ 0; 2 ]) ~capacity:32)

let test_observer_invariant_checker () =
  let _, g = graph_of epoch [ st ~value:7L 8; pb 0; st ~value:1L 16 ] in
  (* invariant: flag at 16 implies payload at 8 *)
  let check_inv image =
    if
      Int64.equal (Bytes.get_int64_le image 16) 1L
      && not (Int64.equal (Bytes.get_int64_le image 8) 7L)
    then Error "flag without payload"
    else Ok ()
  in
  let sampled graph samples =
    Recovery.check ~graph ~capacity:32
      ~strategy:(Recovery.Sampled { samples; seed = 3 })
      check_inv
  in
  checkb "barrier protects" true (Result.is_ok (sampled g 100));
  let _, g2 = graph_of epoch [ st ~value:7L 8; st ~value:1L 16 ] in
  checkb "no barrier violates" true (Result.is_error (sampled g2 200))

(* Oracle on hand traces *)

let test_oracle_verifies_hand_traces () =
  let traces =
    [ [ st 8; st 16; pb 0; st 24; st 8 ];
      [ st ~tid:0 8; ld ~tid:1 8; pb 1; st ~tid:1 16; st ~tid:0 24 ];
      [ st 8; ns 0; st 16; pb 0; st 8; rmw 32 ];
      [ rmw ~tid:0 (vb + 8); st ~tid:0 8; st ~tid:0 (vb + 8);
        rmw ~tid:1 (vb + 8); st ~tid:1 8; pb 1; st ~tid:1 16 ] ]
  in
  List.iter
    (fun events ->
      let trace = Memsim.Trace.of_list events in
      List.iter
        (fun mode ->
          match P.Oracle.verify_engine (cfg mode) trace with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "oracle rejects %s: %s" (P.Config.mode_name mode)
              msg)
        P.Config.all_modes)
    traces

(* Oracle on random traces (property-based) *)

let gen_trace =
  let open QCheck.Gen in
  let addr = oneofl [ 8; 16; 24; 32; 64; vb + 8; vb + 16 ] in
  let event =
    frequency
      [ ( 4,
          map2
            (fun tid a -> st ~tid ~value:(Int64.of_int a) a)
            (int_bound 2) addr );
        (3, map2 (fun tid a -> ld ~tid a) (int_bound 2) addr);
        (1, map2 (fun tid a -> rmw ~tid a) (int_bound 2) addr);
        (2, map (fun tid -> pb tid) (int_bound 2));
        (1, map (fun tid -> ns tid) (int_bound 2)) ]
  in
  list_size (int_range 5 60) event

let arbitrary_trace =
  QCheck.make gen_trace ~print:(fun evs ->
      String.concat "; " (List.map E.to_string evs))

let oracle_property mode flags =
  QCheck.Test.make ~count:120
    ~name:(Printf.sprintf "oracle verifies %s%s" (P.Config.mode_name mode) flags)
    arbitrary_trace
    (fun events ->
      let trace = Memsim.Trace.of_list events in
      let c =
        match flags with
        | " tso" -> P.Config.make ~tso_conflicts:true mode
        | " persistent-only" ->
          P.Config.make ~persistent_only_conflicts:true mode
        | " coarse" -> P.Config.make ~track_gran:16 ~persist_gran:32 mode
        | " no-coalesce" -> P.Config.make ~coalescing:false mode
        | " strict-tso" -> P.Config.make ~consistency:P.Config.Tso mode
        | " strict-rmo" -> P.Config.make ~consistency:P.Config.Rmo mode
        | _ -> P.Config.make mode
      in
      match P.Oracle.verify_engine c trace with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let qcheck_oracle_tests =
  List.concat_map
    (fun mode ->
      List.map
        (fun flags -> QCheck_alcotest.to_alcotest (oracle_property mode flags))
        [ ""; " tso"; " persistent-only"; " coarse"; " no-coalesce";
          " strict-tso"; " strict-rmo" ])
    P.Config.all_modes

let observer_cut_property =
  QCheck.Test.make ~count:80 ~name:"random cuts are down-closed"
    arbitrary_trace
    (fun events ->
      let c = P.Config.make ~record_graph:true P.Config.Epoch in
      let e = engine_of ~cfg:c events in
      match P.Engine.graph e with
      | None -> true
      | Some g ->
        let rng = Random.State.make [| 42 |] in
        let dag = P.Persist_graph.dag g in
        List.for_all
          (fun _ -> P.Dag.is_down_closed dag (P.Dag.random_down_closed dag rng))
          (List.init 10 Fun.id))

let engine_determinism_property =
  QCheck.Test.make ~count:60 ~name:"engine is deterministic" arbitrary_trace
    (fun events ->
      let run () =
        let e = engine_of ~cfg:(P.Config.make P.Config.Strand) events in
        (P.Engine.critical_path e, P.Engine.persist_ops e)
      in
      run () = run ())

let counters_property =
  QCheck.Test.make ~count:60 ~name:"persist counters are consistent"
    arbitrary_trace
    (fun events ->
      List.for_all
        (fun mode ->
          let e = engine_of ~cfg:(cfg mode) events in
          let persists = P.Engine.persist_events e in
          let op_count = P.Engine.persist_ops e in
          op_count + P.Engine.coalesced e = persists
          && op_count <= persists
          && (persists = 0) = (P.Engine.critical_path e = 0)
          && P.Engine.critical_path e <= persists)
        P.Config.all_modes)

let () =
  Alcotest.run "persistency-core"
    [ ( "level",
        [ Alcotest.test_case "merge" `Quick test_level_merge;
          Alcotest.test_case "excluding" `Quick test_level_excluding;
          Alcotest.test_case "provenance cap" `Quick test_level_provenance_cap;
          Alcotest.test_case "append newest" `Quick test_level_push;
          QCheck_alcotest.to_alcotest merge_reference_property;
          QCheck_alcotest.to_alcotest merge_model_property;
          QCheck_alcotest.to_alcotest merge_laws_property ] );
      ( "itbl",
        [ QCheck_alcotest.to_alcotest itbl_model_property;
          Alcotest.test_case "reserved key" `Quick test_itbl_reserved_key ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "names" `Quick test_config_names ] );
      ( "dag",
        [ Alcotest.test_case "topo" `Quick test_dag_topo;
          Alcotest.test_case "reach/ancestors" `Quick test_dag_reach_ancestors;
          Alcotest.test_case "down closed" `Quick test_dag_down_closed;
          Alcotest.test_case "random down closed" `Quick
            test_dag_random_down_closed;
          Alcotest.test_case "size bound" `Quick test_dag_too_big;
          Alcotest.test_case "cut order" `Quick test_dag_cut_order;
          QCheck_alcotest.to_alcotest all_down_closed_property;
          QCheck_alcotest.to_alcotest of_preds_property;
          QCheck_alcotest.to_alcotest is_down_closed_property;
          QCheck_alcotest.to_alcotest random_down_closed_property;
          QCheck_alcotest.to_alcotest naive_reach_property;
          QCheck_alcotest.to_alcotest naive_draws_property;
          QCheck_alcotest.to_alcotest reduced_property;
          Alcotest.test_case "reduction in column blocks" `Quick
            test_reduced_blocks;
          Alcotest.test_case "reduction of recorded graphs" `Quick
            test_recorded_reduction;
          Alcotest.test_case "out-of-range ids" `Quick test_dag_out_of_range
        ] );
      ( "engine-strict",
        [ Alcotest.test_case "serializes" `Quick test_strict_serializes;
          Alcotest.test_case "same-address coalescing" `Quick
            test_strict_same_address_coalesces;
          Alcotest.test_case "thread concurrency" `Quick
            test_strict_threads_concurrent;
          Alcotest.test_case "conflicts order threads" `Quick
            test_strict_conflict_orders_threads;
          Alcotest.test_case "ignores barriers" `Quick
            test_strict_ignores_barriers ] );
      ( "engine-epoch",
        [ Alcotest.test_case "intra-epoch concurrency" `Quick
            test_epoch_intra_epoch_concurrent;
          Alcotest.test_case "barrier orders" `Quick test_epoch_barrier_orders;
          Alcotest.test_case "load without barrier" `Quick
            test_epoch_load_without_barrier;
          Alcotest.test_case "strong persist atomicity" `Quick
            test_epoch_strong_persist_atomicity;
          Alcotest.test_case "volatile conflicts" `Quick
            test_epoch_volatile_conflicts_order;
          Alcotest.test_case "rmw conflicts" `Quick test_epoch_rmw_conflicts;
          Alcotest.test_case "closed nodes" `Quick
            test_epoch_closed_node_no_coalesce ] );
      ( "engine-strict-relaxed",
        [ Alcotest.test_case "tso stores serialize" `Quick
            test_strict_tso_stores_serialize;
          Alcotest.test_case "tso loads drift" `Quick
            test_strict_tso_loads_drift;
          Alcotest.test_case "tso rmw ordered" `Quick
            test_strict_tso_rmw_ordered;
          Alcotest.test_case "rmo reorders persists" `Quick
            test_strict_rmo_reorders_persists;
          Alcotest.test_case "rmo equals epoch" `Quick
            test_strict_rmo_equals_epoch_without_strands;
          Alcotest.test_case "two tso notions" `Quick test_two_tso_notions ] );
      ( "engine-strand",
        [ Alcotest.test_case "new strand clears" `Quick
            test_strand_new_strand_clears;
          Alcotest.test_case "atomicity orders strands" `Quick
            test_strand_atomicity_still_orders;
          Alcotest.test_case "equals epoch without NS" `Quick
            test_strand_epoch_equivalence_without_ns ] );
      ( "engine-ablation",
        [ Alcotest.test_case "tso misses load-store" `Quick
            test_tso_misses_load_before_store;
          Alcotest.test_case "persistent-only conflicts" `Quick
            test_persistent_only_conflicts;
          Alcotest.test_case "tracking granularity" `Quick
            test_tracking_granularity_false_sharing;
          Alcotest.test_case "persist granularity" `Quick
            test_persist_granularity_coalescing;
          Alcotest.test_case "coalescing disabled" `Quick
            test_coalescing_disabled ] );
      ( "engine-misc",
        [ Alcotest.test_case "sub-word coalescing" `Quick
            test_subword_persists_coalesce;
          Alcotest.test_case "sub-word atomicity" `Quick
            test_subword_within_block_atomic;
          Alcotest.test_case "cross-thread strands" `Quick
            test_cross_thread_strand_concurrency;
          Alcotest.test_case "deep epoch chain" `Quick test_deep_epoch_chain;
          Alcotest.test_case "counters" `Quick test_engine_counters;
          Alcotest.test_case "volatile not persists" `Quick
            test_engine_volatile_stores_not_persists;
          Alcotest.test_case "bad thread ids rejected" `Quick
            test_engine_rejects_bad_tid ] );
      ( "graph",
        [ Alcotest.test_case "structure" `Quick test_graph_structure;
          Alcotest.test_case "coalesced writes" `Quick
            test_graph_coalesced_writes_merge;
          Alcotest.test_case "node mapping" `Quick test_graph_node_mapping;
          Alcotest.test_case "order tracks edits" `Quick
            test_graph_dag_tracks_edits;
          Alcotest.test_case "critical chain edges" `Quick
            test_critical_chain_edges;
          Alcotest.test_case "critical chain level check" `Quick
            test_critical_chain_level_check;
          Alcotest.test_case "critical chain survey" `Quick
            test_critical_chain_survey;
          QCheck_alcotest.to_alcotest reduce_property;
          QCheck_alcotest.to_alcotest fingerprint_reference_property ] );
      ( "observer",
        [ Alcotest.test_case "cut count" `Quick test_observer_cut_count;
          Alcotest.test_case "images" `Quick test_observer_image;
          Alcotest.test_case "illegal cut" `Quick test_observer_illegal_cut;
          Alcotest.test_case "invariant checker" `Quick
            test_observer_invariant_checker;
          Alcotest.test_case "out-of-range cut ids" `Quick
            test_observer_out_of_range ] );
      ( "oracle",
        Alcotest.test_case "hand traces" `Quick test_oracle_verifies_hand_traces
        :: qcheck_oracle_tests
        @ [ QCheck_alcotest.to_alcotest observer_cut_property;
            QCheck_alcotest.to_alcotest engine_determinism_property;
            QCheck_alcotest.to_alcotest counters_property ] ) ]
