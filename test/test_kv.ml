(* The KV store workload family and its recovery checker.

   - the deterministic workload shape (group assignment, schedules);
   - exhaustive failure injection on tiny runs: every durable prefix of
     every discipline recovers under its paired model;
   - sampled failure injection at 2 threads;
   - the deliberately broken discipline (seal->slot barrier removed)
     fails, both by sampling and on a specific targeted crash state
     that the correct discipline survives;
   - the final image recovers exactly the last value put to each key;
   - the paper's headline ordering: per-put persist critical path
     strand < epoch < strict at 2 threads. *)

module P = Persistency
module K = Kv
module X = Experiments.Kv_exp

let checkb = Alcotest.(check bool)

let paired =
  [ ("strict", P.Config.Strict, K.Strict_stores);
    ("epoch", P.Config.Epoch, K.Epoch_undo);
    ("strand", P.Config.Strand, K.Strand_ops) ]

let tiny discipline =
  { K.discipline;
    threads = 1;
    ops_per_thread = 2;
    get_every = 0;
    key_space = 2;
    groups = 2;
    group_size = 2;
    seed = 11;
    policy = Memsim.Machine.Round_robin;
    dist = Workloads.Keygen.Uniform;
    machine = Memsim.Machine.Sc;
    persistence = Memsim.Machine.Psync;
    barrier = Memsim.Machine.Pbarrier }

let graph_of params mode =
  let _, graph, layout = X.analyze_with_graph params (P.Config.make mode) in
  (graph, layout)

(* Workload shape *)

let test_key_groups_occupancy () =
  List.iter
    (fun (key_space, groups, group_size, seed) ->
      let p =
        { (tiny K.Epoch_undo) with K.key_space; groups; group_size; seed }
      in
      let kg = K.key_groups p in
      let counts = Array.make groups 0 in
      Array.iter
        (fun g ->
          checkb "group in range" true (g >= 0 && g < groups);
          counts.(g) <- counts.(g) + 1)
        kg;
      Alcotest.(check int) "every key placed" key_space (Array.length kg);
      Array.iter
        (fun c -> checkb "occupancy bounded" true (c <= group_size))
        counts)
    [ (2, 2, 2, 1); (8, 2, 4, 2); (24, 8, 3, 3); (16, 4, 4, 99); (1, 1, 1, 0) ]

let test_schedule_deterministic () =
  let p = X.kv_params ~threads:2 ~total_ops:32 P.Config.Epoch in
  List.iter
    (fun tid ->
      List.iter
        (fun seq ->
          checkb "op_of is a pure function" true
            (K.op_of p ~tid ~seq = K.op_of p ~tid ~seq))
        [ 0; 3; 7 ])
    [ 0; 1 ];
  let w = K.written p in
  checkb "some puts" true (List.length w > 0);
  List.iter
    (fun (k, v) ->
      checkb "key in range" true (k >= 1 && k <= p.K.key_space);
      checkb "value unique positive" true (Int64.compare v 0L > 0))
    w;
  Alcotest.(check int) "values globally unique"
    (List.length w)
    (List.length (List.sort_uniq compare (List.map snd w)))

let test_run_counts () =
  let p = { (tiny K.Epoch_undo) with K.ops_per_thread = 8; get_every = 4 } in
  let r = K.run p ~sink:ignore in
  Alcotest.(check int) "ops split into puts and gets"
    (p.K.threads * p.K.ops_per_thread)
    (r.K.puts + r.K.gets);
  Alcotest.(check int) "a get every 4th op" 2 r.K.gets;
  checkb "every op probes at least once" true (r.K.probes >= r.K.puts + r.K.gets);
  checkb "events flowed" true (r.K.events > 0)

let test_validate_rejects () =
  let expect_invalid p =
    match K.validate p with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "invalid params accepted"
  in
  expect_invalid { (tiny K.Epoch_undo) with K.get_every = 1 };
  expect_invalid { (tiny K.Epoch_undo) with K.key_space = 5 };
  expect_invalid { (tiny K.Epoch_undo) with K.threads = 0 }

(* Failure injection *)

let test_exhaustive_all_disciplines () =
  List.iter
    (fun (label, mode, discipline) ->
      let params = tiny discipline in
      let graph, layout = graph_of params mode in
      match
        Kv_recovery.verify ~params ~layout ~graph
          ~strategy:Recovery.Exhaustive
      with
      | Ok r ->
        checkb (label ^ ": several prefixes") true (r.Recovery.prefixes > 2)
      | Error f ->
        Alcotest.failf "%s: %s" label (Recovery.render_failure f))
    paired

let test_exhaustive_counts_all_cuts () =
  let params = tiny K.Epoch_undo in
  let graph, layout = graph_of params P.Config.Epoch in
  match
    Kv_recovery.verify ~params ~layout ~graph ~strategy:Recovery.Exhaustive
  with
  | Ok r ->
    Alcotest.(check int) "checked every durable prefix"
      (List.length (P.Dag.all_down_closed (P.Persist_graph.dag graph)))
      r.Recovery.prefixes
  | Error f -> Alcotest.fail (Recovery.render_failure f)

let test_sampled_two_threads () =
  List.iter
    (fun (label, mode, _) ->
      let params = X.kv_params ~threads:2 ~total_ops:32 mode in
      let graph, layout = graph_of params mode in
      match
        Kv_recovery.verify ~params ~layout ~graph
          ~strategy:(Recovery.Sampled { samples = 200; seed = 5 })
      with
      | Ok _ -> ()
      | Error f ->
        Alcotest.failf "%s: %s" label (Recovery.render_failure f))
    paired

let test_buggy_sampled_fails () =
  let params =
    { (X.kv_params ~threads:2 ~total_ops:32 P.Config.Epoch) with
      K.discipline = K.Buggy_undo }
  in
  let graph, layout = graph_of params P.Config.Epoch in
  match
    Kv_recovery.verify ~params ~layout ~graph
      ~strategy:(Recovery.Sampled { samples = 500; seed = 42 })
  with
  | Ok _ -> Alcotest.fail "buggy discipline survived sampled failure injection"
  | Error _ -> ()

(* Deterministic witness for the missing seal->slot barrier: the
   down-closure of the first slot value-word persist.  Without the
   barrier the closure leaves the record seal behind, so the image has
   a torn slot and no sealed undo record. *)
let first_value_store_cut graph (layout : K.layout) =
  let node = ref (-1) in
  P.Persist_graph.iter
    (fun n ->
      Memsim.Vec.iter
        (fun (w : P.Persist_graph.write) ->
          if
            !node = -1
            && w.addr >= layout.K.table_addr
            && w.addr < layout.K.table_addr + layout.K.table_bytes
            && (w.addr - layout.K.table_addr) mod K.slot_bytes = 8
          then node := n.P.Persist_graph.id)
        n.P.Persist_graph.writes)
    graph;
  checkb "found a slot value persist" true (!node >= 0);
  P.Dag.down_closure (P.Persist_graph.dag graph) (P.Iset.singleton !node)

let test_buggy_targeted_cut () =
  let params = tiny K.Buggy_undo in
  let graph, layout = graph_of params P.Config.Epoch in
  let cut = first_value_store_cut graph layout in
  let image =
    P.Observer.image_of_cut graph cut
      ~capacity:(Kv_recovery.image_capacity layout)
  in
  checkb "slot durable without its sealed record" true
    (Kv_recovery.checker ~params ~layout image <> Ok ())

let test_correct_targeted_cut () =
  let params = tiny K.Epoch_undo in
  let graph, layout = graph_of params P.Config.Epoch in
  let cut = first_value_store_cut graph layout in
  let image =
    P.Observer.image_of_cut graph cut
      ~capacity:(Kv_recovery.image_capacity layout)
  in
  checkb "closure drags the sealed record along" true
    (Kv_recovery.checker ~params ~layout image = Ok ())

let test_final_image_recovers_all_puts () =
  let params =
    { (tiny K.Epoch_undo) with
      K.ops_per_thread = 8;
      get_every = 4;
      key_space = 4;
      groups = 2;
      group_size = 2 }
  in
  let graph, layout = graph_of params P.Config.Epoch in
  let image =
    P.Observer.final_image graph ~capacity:(Kv_recovery.image_capacity layout)
  in
  (* single thread: the store's final state is the last put per key in
     program order *)
  let expected = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace expected k v) (K.written params);
  let expected =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) expected [])
  in
  match Kv_recovery.recover ~params ~layout image with
  | Ok r ->
    Alcotest.(check (list (pair int int64)))
      "final image holds the last value of every key" expected
      r.Kv_recovery.bindings;
    Alcotest.(check int) "nothing to roll back" 0 r.Kv_recovery.rolled_back
  | Error msg -> Alcotest.fail msg

(* Critical path ordering *)

let test_cp_ordering_two_threads () =
  let cp mode =
    (X.analyze (X.kv_params ~threads:2 ~total_ops:128 mode) (P.Config.make mode))
      .X.cp_per_put
  in
  let strict = cp P.Config.Strict in
  let epoch = cp P.Config.Epoch in
  let strand = cp P.Config.Strand in
  checkb
    (Printf.sprintf "strand (%.3f) < epoch (%.3f)" strand epoch)
    true (strand < epoch);
  checkb
    (Printf.sprintf "epoch (%.3f) < strict (%.3f)" epoch strict)
    true (epoch < strict)

(* The perfbench recover-kv graph (2 threads x 128 ops, epoch undo). *)
let recover_kv_graph () =
  let params = X.kv_params ~threads:2 ~total_ops:256 P.Config.Epoch in
  let _, graph, _ =
    X.analyze_with_graph params (P.Config.make P.Config.Epoch)
  in
  graph

(* Pinned by the hex digest of its fingerprint as recorded with the
   engine's former quadratic frontier reduction. *)
let test_recorded_graph_pinned () =
  Alcotest.(check string)
    "graph digest" "5355c1a495b131e50fe536ec0915291f"
    (Digest.to_hex
       (Digest.string (P.Graph_export.fingerprint (recover_kv_graph ()))))

(* The crash states recover-kv samples from that graph: 30
   [random_down_closed] draws per seed, pinned by the hex digest of
   their id lists (one line of comma-separated ids per cut) as drawn by
   the former set-backed DAG.  The same seed must keep giving the same
   cuts, whatever the DAG's representation. *)
let test_sampled_cuts_pinned () =
  let graph = recover_kv_graph () in
  let dag = P.Persist_graph.dag graph in
  let line cut =
    String.concat "," (List.map string_of_int (P.Iset.elements cut))
  in
  let digest cuts =
    Digest.to_hex (Digest.string (String.concat "\n" (List.map line cuts)))
  in
  List.iter
    (fun (seed, pinned) ->
      let rng = Random.State.make [| seed |] in
      let cuts = List.init 30 (fun _ -> P.Dag.random_down_closed dag rng) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d cut digest" seed)
        pinned (digest cuts);
      (* the path recovery takes: [Recovery.check_cuts] draws from the
         reduced DAG, and its 30 draws are distinct, so the observer
         sees every one of them, in order *)
      let seen = ref [] in
      let observer ~cut _ =
        seen := cut :: !seen;
        Ok ()
      in
      (match
         Recovery.check_cuts ~graph ~capacity:0
           ~strategy:(Recovery.Sampled { samples = 30; seed })
           observer
       with
      | Ok r -> Alcotest.(check int) "distinct draws" 30 r.Recovery.prefixes
      | Error f -> Alcotest.fail (Recovery.render_failure f));
      Alcotest.(check string)
        (Printf.sprintf "seed %d cut digest through Recovery.check_cuts" seed)
        pinned
        (digest (List.rev !seen)))
    [ (0, "81ab131964f6a64829c7b2dbecc11787");
      (5, "033bc23a48a1b72058e0dd160be2a8a0") ]

let () =
  Alcotest.run "kv"
    [ ( "workload-shape",
        [ Alcotest.test_case "group occupancy bounded" `Quick
            test_key_groups_occupancy;
          Alcotest.test_case "deterministic schedule" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "run counts" `Quick test_run_counts;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects ] );
      ( "failure-injection",
        [ Alcotest.test_case "exhaustive, all disciplines" `Quick
            test_exhaustive_all_disciplines;
          Alcotest.test_case "exhaustive covers every prefix" `Quick
            test_exhaustive_counts_all_cuts;
          Alcotest.test_case "sampled, 2 threads, all disciplines" `Slow
            test_sampled_two_threads;
          Alcotest.test_case "buggy discipline fails" `Quick
            test_buggy_sampled_fails;
          Alcotest.test_case "buggy targeted cut" `Quick
            test_buggy_targeted_cut;
          Alcotest.test_case "correct discipline survives the cut" `Quick
            test_correct_targeted_cut;
          Alcotest.test_case "final image recovers all puts" `Quick
            test_final_image_recovers_all_puts ] );
      ( "critical-path",
        [ Alcotest.test_case "strand < epoch < strict at 2 threads" `Quick
            test_cp_ordering_two_threads;
          Alcotest.test_case "recorded graph pinned" `Quick
            test_recorded_graph_pinned;
          Alcotest.test_case "sampled cuts pinned" `Quick
            test_sampled_cuts_pinned ] ) ]
