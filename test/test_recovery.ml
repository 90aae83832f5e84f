(* Failure injection: the recovery observer samples legal crash states
   and the queue recovery invariant, then durable linearizability, must
   hold in every one — for every design, every model/annotation pair,
   and several schedules.  Runs are checked through the driver's
   single-run entry ({!Check.Driver.check_run}).  The deliberately
   broken annotation (no data→head barrier) must fail, and must fail on
   a specific, targeted crash state. *)

module Q = Workloads.Queue
module P = Persistency

let checkb = Alcotest.(check bool)

let model_points =
  [ ("strict", P.Config.Strict, Q.Unannotated);
    ("epoch", P.Config.Epoch, Q.Epoch);
    ("racing", P.Config.Epoch, Q.Racing);
    ("strand", P.Config.Strand, Q.Strand) ]

let queue_params ~design ~annotation ~threads ~inserts ~seed =
  { Q.design;
    annotation;
    threads;
    inserts_per_thread = inserts;
    entry_size = 100;
    capacity_entries = threads * inserts;
    seed;
    policy = Memsim.Machine.Random seed;
    machine = Memsim.Machine.Sc;
    persistence = Memsim.Machine.Psync;
    barrier = Memsim.Machine.Pbarrier }

let run_and_graph ~design ~annotation ~mode ~threads ~inserts ~seed =
  let params = queue_params ~design ~annotation ~threads ~inserts ~seed in
  let cfg = P.Config.make ~record_graph:true mode in
  let engine = P.Engine.create cfg in
  let result = Q.run params ~sink:(P.Engine.observe engine) in
  (params, result.Q.layout, Option.get (P.Engine.graph engine))

(* The same run as a driver instance, under the params' own policy. *)
let instance ~design ~annotation ~mode ~threads ~inserts ~seed =
  let params = queue_params ~design ~annotation ~threads ~inserts ~seed in
  Check.Driver.instance Check.Driver.queue params (P.Config.make mode)
    params.Q.policy

let driver_check ~samples ~seed inst =
  match
    Check.Driver.check_run
      ~strategy:(fun _ -> Recovery.Sampled { samples; seed })
      inst
  with
  | Ok _ -> Ok ()
  | Error f -> Error (Recovery.render_failure f)

let sampled_check ~design ~annotation ~mode ~seed =
  driver_check ~samples:300 ~seed
    (instance ~design ~annotation ~mode ~threads:2 ~inserts:8 ~seed)

(* The loop the shared Recovery subsystem replaced: draw [samples] cuts
   from one seeded rng, build each image, stop at the first failure.
   It re-checks duplicate draws where Recovery skips them. *)
let legacy_sampled graph check ~capacity ~samples ~seed =
  let rng = Random.State.make [| seed |] in
  let dag = P.Persist_graph.dag graph in
  let rec loop i =
    if i >= samples then Ok ()
    else
      let cut = P.Dag.random_down_closed dag rng in
      match check (P.Observer.image_of_cut graph cut ~capacity) with
      | Ok () -> loop (i + 1)
      | Error msg ->
        Error
          (Printf.sprintf "crash state with %d/%d persists durable: %s"
             (P.Iset.cardinal cut) (P.Persist_graph.node_count graph) msg)
  in
  loop 0

(* Recovery draws the same cut sequence as that loop (same rng seeding,
   same generator), so the driver must reach the same verdict and
   rendering on the same graph: on these runs the durable-linearizability
   layer neither hides nor adds a failure. *)
let test_verify_matches_legacy () =
  List.iter
    (fun annotation ->
      let params, layout, graph =
        run_and_graph ~design:Q.Cwl ~annotation ~mode:P.Config.Epoch
          ~threads:2 ~inserts:6 ~seed:9
      in
      let inst =
        instance ~design:Q.Cwl ~annotation ~mode:P.Config.Epoch ~threads:2
          ~inserts:6 ~seed:9
      in
      Alcotest.(check string)
        "driver records the same graph"
        (P.Graph_export.fingerprint graph)
        (P.Graph_export.fingerprint inst.Check.Driver.graph);
      let capacity = Workloads.Queue_recovery.image_capacity layout in
      let legacy =
        legacy_sampled graph
          (Workloads.Queue_recovery.check ~params ~layout)
          ~capacity ~samples:200 ~seed:9
      in
      Alcotest.(check (result unit string))
        "identical verdict and rendering" legacy
        (driver_check ~samples:200 ~seed:9 inst))
    [ Q.Epoch; Q.Buggy_epoch ]

let test_all_models_recover design () =
  List.iter
    (fun (label, mode, annotation) ->
      List.iter
        (fun seed ->
          match sampled_check ~design ~annotation ~mode ~seed with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "%s/%s seed %d: %s" (Q.design_name design) label
              seed msg)
        [ 3; 7 ])
    model_points

let test_buggy_annotation_fails () =
  (* removing the data→head barrier must be caught by sampling *)
  match
    sampled_check ~design:Q.Cwl ~annotation:Q.Buggy_epoch
      ~mode:P.Config.Epoch ~seed:3
  with
  | Ok () ->
    Alcotest.fail "buggy annotation survived sampled failure injection"
  | Error _ -> ()

let test_buggy_annotation_targeted_cut () =
  (* deterministic witness: take the down-closure of the LAST head
     update alone; without the barrier it does not drag the entry data
     along, so recovery must find a hole *)
  let params, layout, graph =
    run_and_graph ~design:Q.Cwl ~annotation:Q.Buggy_epoch ~mode:P.Config.Epoch
      ~threads:1 ~inserts:4 ~seed:5
  in
  let dag = P.Persist_graph.dag graph in
  (* find the node holding the highest head-pointer write *)
  let head_node = ref (-1) in
  P.Persist_graph.iter
    (fun n ->
      Memsim.Vec.iter
        (fun (w : P.Persist_graph.write) ->
          if w.addr = layout.Q.head_addr then head_node := n.P.Persist_graph.id)
        n.P.Persist_graph.writes)
    graph;
  checkb "found head node" true (!head_node >= 0);
  let cut = P.Dag.down_closure dag (P.Iset.singleton !head_node) in
  let image =
    P.Observer.image_of_cut graph cut
      ~capacity:(layout.Q.data_addr + layout.Q.data_bytes)
  in
  checkb "head durable without data" true
    (Workloads.Queue_recovery.check ~params ~layout image <> Ok ())

let test_correct_annotation_targeted_cut () =
  (* the same targeted cut against the CORRECT annotation must be fine:
     the barrier makes the data a dependence of the head update *)
  let params, layout, graph =
    run_and_graph ~design:Q.Cwl ~annotation:Q.Epoch ~mode:P.Config.Epoch
      ~threads:1 ~inserts:4 ~seed:5
  in
  let dag = P.Persist_graph.dag graph in
  let head_node = ref (-1) in
  P.Persist_graph.iter
    (fun n ->
      Memsim.Vec.iter
        (fun (w : P.Persist_graph.write) ->
          if w.addr = layout.Q.head_addr then head_node := n.P.Persist_graph.id)
        n.P.Persist_graph.writes)
    graph;
  let cut = P.Dag.down_closure dag (P.Iset.singleton !head_node) in
  let image =
    P.Observer.image_of_cut graph cut
      ~capacity:(layout.Q.data_addr + layout.Q.data_bytes)
  in
  checkb "closure carries the data" true
    (Workloads.Queue_recovery.check ~params ~layout image = Ok ())

let test_strict_unannotated_buggy_still_safe () =
  (* under strict persistency even the buggy program is safe: program
     order alone orders data before head *)
  match
    sampled_check ~design:Q.Cwl ~annotation:Q.Buggy_epoch
      ~mode:P.Config.Strict ~seed:3
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "strict should tolerate missing barriers: %s" msg

let test_empty_cut_recovers_empty () =
  let params, layout, graph =
    run_and_graph ~design:Q.Cwl ~annotation:Q.Epoch ~mode:P.Config.Epoch
      ~threads:1 ~inserts:4 ~seed:1
  in
  let image =
    P.Observer.image_of_cut graph P.Iset.empty
      ~capacity:(layout.Q.data_addr + layout.Q.data_bytes)
  in
  match Workloads.Queue_recovery.recover ~params ~layout image with
  | Ok r ->
    Alcotest.(check int) "empty queue" 0
      (List.length r.Workloads.Queue_recovery.entries)
  | Error msg -> Alcotest.fail msg

(* Property: any correctly annotated queue configuration recovers in
   every sampled crash state. *)
let recovery_property =
  let gen =
    let open QCheck.Gen in
    let design = oneofl [ Q.Cwl; Q.Tlc ] in
    let point = oneofl model_points in
    let threads = int_range 1 3 in
    let inserts = int_range 2 6 in
    let seed = int_range 0 1000 in
    map
      (fun (design, point, threads, inserts, seed) ->
        (design, point, threads, inserts, seed))
      (tup5 design point threads inserts seed)
  in
  let print (design, (label, _, _), threads, inserts, seed) =
    Printf.sprintf "%s/%s threads=%d inserts=%d seed=%d"
      (Q.design_name design) label threads inserts seed
  in
  QCheck.Test.make ~count:40 ~name:"random configs recover"
    (QCheck.make gen ~print)
    (fun (design, (_, mode, annotation), threads, inserts, seed) ->
      match
        driver_check ~samples:100 ~seed
          (instance ~design ~annotation ~mode ~threads ~inserts ~seed)
      with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* [Recovery.auto] boundary behavior: the strategy switchover must
   happen exactly at [exhaustive_limit] nodes — one node past it falls
   back to sampling — and limits beyond the 24-node enumeration ceiling
   must be rejected, not silently sampled. *)
let graph_of_n n =
  let trace =
    Memsim.Trace.of_list
      (List.init n (fun i ->
           Memsim.Event.Access
             ( Memsim.Event.Store,
               { Memsim.Event.tid = 0;
                 addr = 8 * i;
                 size = 8;
                 value = 1L;
                 space = Memsim.Addr.Persistent } )))
  in
  let cfg = P.Config.make ~coalescing:false ~record_graph:true P.Config.Epoch in
  let engine = P.Engine.create cfg in
  P.Engine.observe_trace engine trace;
  let graph = Option.get (P.Engine.graph engine) in
  Alcotest.(check int) "graph size" n (P.Persist_graph.node_count graph);
  graph

let test_auto_boundary () =
  let strat ?exhaustive_limit n =
    Recovery.auto ?exhaustive_limit ~samples:7 ~seed:3 (graph_of_n n)
  in
  let is_exhaustive = function
    | Recovery.Exhaustive -> true
    | Recovery.Sampled _ -> false
  in
  (* default limit is 20 *)
  checkb "20 nodes: exhaustive" true (is_exhaustive (strat 20));
  checkb "21 nodes: sampled" false (is_exhaustive (strat 21));
  (match strat 21 with
  | Recovery.Sampled { samples; seed } ->
    Alcotest.(check int) "samples carried" 7 samples;
    Alcotest.(check int) "seed carried" 3 seed
  | Recovery.Exhaustive -> Alcotest.fail "expected Sampled");
  (* the limit is a parameter, up to the enumeration ceiling *)
  checkb "limit 24, 24 nodes: exhaustive" true
    (is_exhaustive (strat ~exhaustive_limit:24 24));
  checkb "limit 24, 25 nodes: sampled" false
    (is_exhaustive (strat ~exhaustive_limit:24 25));
  checkb "limit 1, 2 nodes: sampled" false
    (is_exhaustive (strat ~exhaustive_limit:1 2));
  Alcotest.match_raises "limit 25 rejected"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (strat ~exhaustive_limit:25 4));
  (* both strategies actually run at their boundary sizes: exhaustive
     enumerates all 2^n prefixes of an unordered 20-node graph only if
     asked... keep it small: n independent persists have 2^n prefixes *)
  let graph = graph_of_n 4 in
  (match
     Recovery.check ~graph ~capacity:64 ~strategy:Recovery.Exhaustive
       (fun _ -> Ok ())
   with
  | Ok r ->
    Alcotest.(check int) "2^4 prefixes" 16 r.Recovery.prefixes;
    Alcotest.(check int) "4 nodes" 4 r.Recovery.nodes
  | Error _ -> Alcotest.fail "exhaustive check failed");
  (match
     Recovery.check ~graph ~capacity:64
       ~strategy:(Recovery.Sampled { samples = 9; seed = 1 })
       (fun _ -> Ok ())
   with
  | Ok r ->
    (* prefixes counts DISTINCT sampled cuts: never more than the
       sample budget, and repeat draws are deduplicated rather than
       re-checked *)
    checkb "sampled distinct <= samples" true (r.Recovery.prefixes <= 9);
    checkb "sampled some prefixes" true (r.Recovery.prefixes > 0)
  | Error _ -> Alcotest.fail "sampled check failed");
  (* with a large budget on a small graph, dedup converges on the full
     cut census: 4 independent persists have exactly 16 down-closed
     sets, no matter how many draws repeat *)
  match
    Recovery.check ~graph ~capacity:64
      ~strategy:(Recovery.Sampled { samples = 4096; seed = 1 })
      (fun _ -> Ok ())
  with
  | Ok r ->
    checkb "sampled census bounded" true (r.Recovery.prefixes <= 16);
    Alcotest.(check int) "sampled census converges" 16 r.Recovery.prefixes
  | Error _ -> Alcotest.fail "sampled census failed"

(* Every crash state of one recorded 12-node graph (CWL, 3 threads x 1
   insert, epoch, round-robin), in [all_down_closed]'s descending
   bitmask order: bit [v] set for each durable node [v].  The walk's
   order, not only its count, is what Exhaustive checks follow. *)
let test_exhaustive_cuts_pinned () =
  let params =
    Check.Driver.queue.params ~threads:3 ~depth:1 ~seed:1
      Memsim.Machine.sc_config Q.Epoch
  in
  let inst =
    Check.Driver.instance Check.Driver.queue params
      (P.Config.make P.Config.Epoch) Memsim.Machine.Round_robin
  in
  let graph = inst.Check.Driver.graph in
  Alcotest.(check int) "nodes" 12 (P.Persist_graph.node_count graph);
  let mask cut = P.Iset.fold (fun v m -> m lor (1 lsl v)) cut 0 in
  Alcotest.(check (list int))
    "cuts"
    [ 0xfff; 0x7ff; 0x6ff; 0x5ff; 0x4ff; 0x3ff; 0x2ff; 0x1ff; 0xff; 0x7f;
      0x6f; 0x5f; 0x4f; 0x3f; 0x2f; 0x1f; 0xf; 0x7; 0x6; 0x5; 0x4; 0x3;
      0x2; 0x1; 0x0 ]
    (List.map mask (P.Dag.all_down_closed (P.Persist_graph.dag graph)))

let () =
  Alcotest.run "recovery"
    [ ( "failure-injection",
        [ Alcotest.test_case "CWL all models" `Slow
            (test_all_models_recover Q.Cwl);
          Alcotest.test_case "2LC all models" `Slow
            (test_all_models_recover Q.Tlc);
          Alcotest.test_case "Fang all models" `Slow
            (test_all_models_recover Q.Fang);
          Alcotest.test_case "buggy annotation fails" `Quick
            test_buggy_annotation_fails;
          Alcotest.test_case "buggy targeted cut" `Quick
            test_buggy_annotation_targeted_cut;
          Alcotest.test_case "correct targeted cut" `Quick
            test_correct_annotation_targeted_cut;
          Alcotest.test_case "strict tolerates missing barriers" `Quick
            test_strict_unannotated_buggy_still_safe;
          Alcotest.test_case "empty cut" `Quick test_empty_cut_recovers_empty;
          Alcotest.test_case "Recovery.check matches legacy observer" `Quick
            test_verify_matches_legacy;
          Alcotest.test_case "Recovery.auto boundary" `Quick test_auto_boundary;
          QCheck_alcotest.to_alcotest recovery_property;
          Alcotest.test_case "exhaustive cuts pinned" `Quick
            test_exhaustive_cuts_pinned
        ] ) ]
