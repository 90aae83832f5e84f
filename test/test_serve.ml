(* Tests for the served KV: the open-loop load generator, the sharded
   group-commit queueing simulation, and group-commit crash recovery
   under failure injection. *)

module L = Serve.Loadgen
module S = Serve.Sim
module G = Kv_group
module P = Persistency

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Load generator *)

let small_load =
  { L.default_params with L.requests = 4000; key_space = 64; seed = 5 }

let test_loadgen_deterministic () =
  let a = L.generate small_load in
  let b = L.generate small_load in
  checkb "same params, same stream" true (a = b);
  let c = L.generate { small_load with L.seed = 6 } in
  checkb "seed changes the stream" true (a <> c)

let test_loadgen_arrivals_increase () =
  let reqs = L.generate small_load in
  Array.iteri
    (fun i (r : L.request) ->
      checki "rid is the position" i r.L.rid;
      if i > 0 then
        checkb "arrivals strictly increase" true
          (r.L.arrival > reqs.(i - 1).L.arrival))
    reqs

let test_loadgen_mix () =
  let reqs = L.generate { small_load with L.read_pct = 25 } in
  let reads =
    Array.fold_left
      (fun acc (r : L.request) ->
        match r.L.op with L.Get _ -> acc + 1 | L.Put _ -> acc)
      0 reqs
  in
  let frac = float_of_int reads /. float_of_int (Array.length reqs) in
  checkb "read fraction near 25%" true (frac > 0.22 && frac < 0.28);
  let all_writes = L.generate { small_load with L.read_pct = 0 } in
  Array.iter
    (fun (r : L.request) ->
      checkb "read_pct 0 is all puts" true
        (match r.L.op with L.Put _ -> true | L.Get _ -> false))
    all_writes

let test_loadgen_burst_density () =
  let burst = { L.period = 50.; width = 10.; factor = 8. } in
  let p = { small_load with L.burst = Some burst } in
  let reqs = L.generate p in
  let inside =
    Array.fold_left
      (fun acc (r : L.request) ->
        if L.in_burst burst r.L.arrival then acc + 1 else acc)
      0 reqs
  in
  let frac = float_of_int inside /. float_of_int (Array.length reqs) in
  (* burst windows are 20% of the timeline at 8x the rate: uniform
     arrivals would put 20% inside; bursty arrivals concentrate *)
  checkb
    (Printf.sprintf "burst windows dense (%.2f of arrivals in 0.20 of time)"
       frac)
    true (frac > 0.5)

let test_loadgen_validate () =
  let expect_invalid p =
    Alcotest.match_raises "rejected"
      (function Invalid_argument _ -> true | _ -> false)
      (fun () -> ignore (L.generate p))
  in
  expect_invalid { small_load with L.rate = 0. };
  expect_invalid { small_load with L.read_pct = 101 };
  expect_invalid { small_load with L.clients = 0 };
  expect_invalid
    { small_load with
      L.burst = Some { L.period = 10.; width = 11.; factor = 2. } };
  expect_invalid
    { small_load with
      L.burst = Some { L.period = 10.; width = 2.; factor = 0.5 } }

(* ------------------------------------------------------------------ *)
(* Queueing simulation *)

(* Overloaded single shard: arrivals far faster than epoch service, so
   every batch fills to the cap and shedding is visible. *)
let sim_params ?(model = S.epoch_model) ?(shards = 1) ?(batch = 8)
    ?(requests = 768) () =
  { S.model;
    shards;
    batch;
    queue_cap = 64;
    group_size = 8;
    load =
      { L.default_params with
        L.requests;
        key_space = 96;
        rate = 64.;
        seed = 11 };
    record_graph = false }

let test_sim_conservation () =
  List.iter
    (fun model ->
      List.iter
        (fun shards ->
          let r = S.run (sim_params ~model ~shards ()) in
          checki
            (model.S.label ^ ": served + shed = requests")
            r.S.params.S.load.L.requests
            (r.S.served + r.S.shed);
          checki (model.S.label ^ ": served = puts + gets") r.S.served
            (r.S.puts + r.S.gets);
          checkb (model.S.label ^ ": some batches committed") true
            (r.S.batches > 0))
        [ 1; 3 ])
    S.models

let test_sim_deterministic () =
  let a = S.run (sim_params ()) in
  let b = S.run (sim_params ()) in
  checki "served" a.S.served b.S.served;
  checki "cp" a.S.cp_total b.S.cp_total;
  checkb "p99" true (a.S.lat_p99 = b.S.lat_p99);
  checkb "throughput" true (a.S.throughput = b.S.throughput)

let test_sim_empty_stream () =
  let p = sim_params ~requests:0 () in
  let r = S.run p in
  checki "nothing served" 0 r.S.served;
  checki "nothing shed" 0 r.S.shed;
  checkb "latency report defined" true (r.S.lat_p99 = 0.)

let test_sim_latency_ordered () =
  let r = S.run (sim_params ()) in
  checkb "p50 <= p95" true (r.S.lat_p50 <= r.S.lat_p95);
  checkb "p95 <= p99" true (r.S.lat_p95 <= r.S.lat_p99);
  checkb "p99 <= max" true (r.S.lat_p99 <= r.S.lat_max);
  checkb "latencies non-negative" true (r.S.lat_p50 >= 0.)

(* The acceptance property: per-put persist-barrier cost strictly
   decreases with batch size under epoch-style group commit. *)
let cp_curve model =
  List.map
    (fun batch ->
      let r = S.run (sim_params ~model ~batch ()) in
      r.S.cp_per_put)
    [ 1; 4; 16 ]

let rec strictly_decreasing = function
  | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
  | _ -> true

let test_sim_epoch_amortization () =
  let curve = cp_curve S.epoch_model in
  checkb
    (Printf.sprintf "epoch cp/put strictly decreasing (%s)"
       (String.concat " > " (List.map (Printf.sprintf "%.3f") curve)))
    true (strictly_decreasing curve)

let test_sim_strand_amortization () =
  (* Strand's inter-batch concurrency already hides most barrier cost
     (independent strands persist in parallel, and the critical path is
     a max, not a sum), so the curve is shallower than epoch's: assert
     batching still helps end to end, and that strand is never costlier
     than epoch at the same batch size. *)
  match (cp_curve S.strand_model, cp_curve S.epoch_model) with
  | ([ b1; _; b16 ] as strand), epoch ->
    checkb
      (Printf.sprintf "strand cp/put lower at batch 16 (%.3f vs %.3f)" b16 b1)
      true (b16 < b1);
    List.iter2
      (fun s e ->
        checkb
          (Printf.sprintf "strand <= epoch at same batch (%.3f vs %.3f)" s e)
          true
          (s <= e +. 1e-9))
      strand epoch
  | _ -> assert false

let test_sim_strict_no_amortization () =
  match cp_curve S.strict_model with
  | [ b1; _; b16 ] ->
    (* strict orders every persist: batching buys at most the marker
       write per batch, never the ~2x collapse epochs see *)
    checkb
      (Printf.sprintf "strict cp/put roughly flat (%.2f vs %.2f)" b1 b16)
      true
      (b16 > 0.8 *. b1)
  | _ -> assert false

let test_sim_sheds_under_overload () =
  let r = S.run (sim_params ~model:S.strict_model ~batch:1 ()) in
  checkb "strict at batch 1 sheds" true (r.S.shed > 0)

(* ------------------------------------------------------------------ *)
(* Group-commit store: direct checks *)

let group_run discipline mode batches =
  let cfg = P.Config.make ~record_graph:true mode in
  let engine = P.Engine.create cfg in
  let store =
    G.create ~discipline ~keys:[ 1; 2; 3; 4 ] ~log_capacity:16
      ~sink:(P.Engine.observe engine) ()
  in
  G.run_batches store batches;
  let graph =
    match P.Engine.graph engine with Some g -> g | None -> assert false
  in
  (store, graph)

let two_batches =
  [ ([ { G.key = 1; value = 10L }; { G.key = 2; value = 20L } ], []);
    ([ { G.key = 1; value = 30L }; { G.key = 3; value = 40L } ], [ 2 ]) ]

let test_group_final_image () =
  let store, graph = group_run G.Epoch_group P.Config.Epoch two_batches in
  let layout = G.layout store in
  let image =
    P.Observer.final_image graph
      ~capacity:(Kv_recovery.group_image_capacity layout)
  in
  match
    Kv_recovery.recover_group ~layout ~batches:(G.batches store) image
  with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    checki "both batches committed" 2 r.Kv_recovery.g_committed;
    Alcotest.(check (list (pair int int64)))
      "final bindings are the batch fold"
      [ (1, 30L); (2, 20L); (3, 40L) ]
      r.Kv_recovery.g_bindings

let test_group_overflow_and_foreign_key () =
  let cfg = P.Config.make P.Config.Epoch in
  let engine = P.Engine.create cfg in
  let store =
    G.create ~discipline:G.Epoch_group ~keys:[ 1; 2 ] ~log_capacity:1
      ~sink:(P.Engine.observe engine) ()
  in
  Alcotest.match_raises "log overflow"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      G.run_batches store
        [ ([ { G.key = 1; value = 1L }; { G.key = 2; value = 2L } ], []) ]);
  let engine2 = P.Engine.create cfg in
  let store2 =
    G.create ~discipline:G.Epoch_group ~keys:[ 1; 2 ] ~log_capacity:4
      ~sink:(P.Engine.observe engine2) ()
  in
  Alcotest.match_raises "foreign key"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> G.run_batches store2 [ ([ { G.key = 9; value = 1L } ], []) ])

(* ------------------------------------------------------------------ *)
(* Failure injection: crash mid-batch must land on a batch boundary.
   Every check goes through the driver's group-commit instance. *)

let group_check ~strategy store graph =
  Check.Driver.check_run ~strategy
    (Check.Driver.group_instance ~layout:(G.layout store)
       ~batches:(G.batches store) graph)

let exhaustive_verify ~discipline ~mode batches =
  let store, graph = group_run discipline mode batches in
  group_check ~strategy:(fun _ -> Recovery.Exhaustive) store graph

let disciplines =
  [ ("strict", G.Strict_group, P.Config.Strict);
    ("epoch", G.Epoch_group, P.Config.Epoch);
    ("strand", G.Strand_group, P.Config.Strand) ]

let test_group_exhaustive_one_batch () =
  (* one batch of two puts: ~19 atomic persists, within the exhaustive
     ceiling — every durable prefix is checked *)
  List.iter
    (fun (label, discipline, mode) ->
      match
        exhaustive_verify ~discipline ~mode
          [ ([ { G.key = 1; value = 10L }; { G.key = 2; value = 20L } ], []) ]
      with
      | Ok r ->
        checkb (label ^ ": several prefixes") true (r.Recovery.prefixes > 2)
      | Error f -> Alcotest.failf "%s: %s" label (Recovery.render_failure f))
    disciplines

let test_group_exhaustive_two_batches () =
  (* two batches of one put each: the crash can land between batches,
     and recovery must roll back to whichever boundary the marker
     proves *)
  List.iter
    (fun (label, discipline, mode) ->
      match
        exhaustive_verify ~discipline ~mode
          [ ([ { G.key = 1; value = 10L } ], []);
            ([ { G.key = 1; value = 20L } ], []) ]
      with
      | Ok r ->
        checkb (label ^ ": several prefixes") true (r.Recovery.prefixes > 2)
      | Error f -> Alcotest.failf "%s: %s" label (Recovery.render_failure f))
    disciplines

let test_group_exhaustive_counts_all_cuts () =
  let store, graph =
    group_run G.Epoch_group P.Config.Epoch
      [ ([ { G.key = 1; value = 10L }; { G.key = 2; value = 20L } ], []) ]
  in
  match group_check ~strategy:(fun _ -> Recovery.Exhaustive) store graph with
  | Ok r ->
    checki "checked every durable prefix"
      (List.length (P.Dag.all_down_closed (P.Persist_graph.dag graph)))
      r.Recovery.prefixes
  | Error f -> Alcotest.fail (Recovery.render_failure f)

let test_group_buggy_sampled_fails () =
  match
    exhaustive_verify ~discipline:G.Buggy_seal ~mode:P.Config.Epoch
      [ ([ { G.key = 1; value = 10L }; { G.key = 2; value = 20L } ], []) ]
  with
  | Ok _ -> Alcotest.fail "buggy batcher survived exhaustive injection"
  | Error f ->
    checkb "diagnosis names the boundary or a torn slot" true
      (String.length f.Recovery.message > 0)

(* Deterministic witness for the missing slots -> marker barrier: the
   down-closure of the *last* marker persist.  Without the barrier the
   closure leaves the batch's slot writes behind, so the marker claims
   a batch whose data is gone. *)
let marker_cut graph (layout : G.layout) =
  let node = ref (-1) in
  P.Persist_graph.iter
    (fun n ->
      Memsim.Vec.iter
        (fun (w : P.Persist_graph.write) ->
          if w.addr = layout.G.marker_addr then node := n.P.Persist_graph.id)
        n.P.Persist_graph.writes)
    graph;
  checkb "found a marker persist" true (!node >= 0);
  P.Dag.down_closure (P.Persist_graph.dag graph) (P.Iset.singleton !node)

let test_group_buggy_targeted_cut () =
  let store, graph = group_run G.Buggy_seal P.Config.Epoch two_batches in
  let layout = G.layout store in
  let cut = marker_cut graph layout in
  let image =
    P.Observer.image_of_cut graph cut
      ~capacity:(Kv_recovery.group_image_capacity layout)
  in
  checkb "marker durable without its batch's slots" true
    (Kv_recovery.check_group ~layout ~batches:(G.batches store) image <> Ok ())

let test_group_correct_targeted_cut () =
  let store, graph = group_run G.Epoch_group P.Config.Epoch two_batches in
  let layout = G.layout store in
  let cut = marker_cut graph layout in
  let image =
    P.Observer.image_of_cut graph cut
      ~capacity:(Kv_recovery.group_image_capacity layout)
  in
  checkb "closure drags the slots along" true
    (Kv_recovery.check_group ~layout ~batches:(G.batches store) image = Ok ())

(* End-to-end through the serve front-end, and the counter-example
   replayed: the simulation is deterministic, so re-running the
   injection reproduces the same failing crash state. *)
let verify_params model =
  { S.model;
    shards = 2;
    batch = 3;
    queue_cap = 64;
    group_size = 8;
    load =
      { L.default_params with
        L.requests = 16;
        key_space = 8;
        rate = 1000.;
        read_pct = 20;
        seed = 3 };
    record_graph = true }

(* Run (the params record every shard's graph) and failure-inject the
   shards in order ([Recovery.auto], 2000 samples, seed 7), stopping at
   the first failing one: the shards checked and their summed prefixes,
   or the failing shard and its failure. *)
let serve_verify p =
  let report = S.run p in
  let rec go shards prefixes = function
    | [] -> Ok (shards, prefixes)
    | (r : S.shard_result) :: rest -> (
      let verdict =
        Check.Driver.check_run ~strategy:(Recovery.auto ~samples:2000 ~seed:7)
          (Check.Driver.group_instance ~layout:r.S.layout
             ~batches:r.S.put_batches (Option.get r.S.graph))
      in
      match verdict with
      | Ok rep -> go (shards + 1) (prefixes + rep.Recovery.prefixes) rest
      | Error f -> Error (r.S.shard, f))
  in
  go 0 0 report.S.shard_results

let test_serve_verify_correct () =
  List.iter
    (fun model ->
      match serve_verify (verify_params model) with
      | Ok (shards, prefixes) ->
        checki (model.S.label ^ ": both shards") 2 shards;
        checkb (model.S.label ^ ": prefixes checked") true (prefixes > 0)
      | Error (shard, f) ->
        Alcotest.failf "%s shard %d: %s" model.S.label shard
          (Recovery.render_failure f))
    S.models

let test_serve_verify_catches_buggy_and_replays () =
  match serve_verify (verify_params S.buggy_model) with
  | Ok _ -> Alcotest.fail "buggy batcher survived serve verification"
  | Error (shard, f) -> (
    (* replay: same params, same injection — the counter-example is
       deterministic *)
    match serve_verify (verify_params S.buggy_model) with
    | Ok _ -> Alcotest.fail "counter-example did not replay"
    | Error (shard', f') ->
      checki "same shard" shard shard';
      checki "same crash state" f.Recovery.durable f'.Recovery.durable;
      Alcotest.(check string) "same diagnosis" f.Recovery.message
        f'.Recovery.message)

let () =
  Alcotest.run "serve"
    [ ( "loadgen",
        [ Alcotest.test_case "deterministic" `Quick test_loadgen_deterministic;
          Alcotest.test_case "arrivals increase" `Quick
            test_loadgen_arrivals_increase;
          Alcotest.test_case "read/write mix" `Quick test_loadgen_mix;
          Alcotest.test_case "burst density" `Quick test_loadgen_burst_density;
          Alcotest.test_case "validation" `Quick test_loadgen_validate ] );
      ( "queueing",
        [ Alcotest.test_case "conservation" `Quick test_sim_conservation;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "empty stream" `Quick test_sim_empty_stream;
          Alcotest.test_case "latency percentiles ordered" `Quick
            test_sim_latency_ordered;
          Alcotest.test_case "sheds under overload" `Quick
            test_sim_sheds_under_overload ] );
      ( "amortization",
        [ Alcotest.test_case "epoch cp/put strictly decreasing" `Quick
            test_sim_epoch_amortization;
          Alcotest.test_case "strand cp/put amortizes, bounded by epoch"
            `Quick test_sim_strand_amortization;
          Alcotest.test_case "strict roughly flat" `Quick
            test_sim_strict_no_amortization ] );
      ( "group-commit",
        [ Alcotest.test_case "final image is the batch fold" `Quick
            test_group_final_image;
          Alcotest.test_case "overflow + foreign key rejected" `Quick
            test_group_overflow_and_foreign_key ] );
      ( "failure-injection",
        [ Alcotest.test_case "exhaustive, one batch, all disciplines" `Quick
            test_group_exhaustive_one_batch;
          Alcotest.test_case "exhaustive, two batches, all disciplines" `Quick
            test_group_exhaustive_two_batches;
          Alcotest.test_case "exhaustive covers every prefix" `Quick
            test_group_exhaustive_counts_all_cuts;
          Alcotest.test_case "buggy batcher caught" `Quick
            test_group_buggy_sampled_fails;
          Alcotest.test_case "buggy targeted marker cut" `Quick
            test_group_buggy_targeted_cut;
          Alcotest.test_case "correct survives the marker cut" `Quick
            test_group_correct_targeted_cut;
          Alcotest.test_case "serve verify, correct models" `Quick
            test_serve_verify_correct;
          Alcotest.test_case "serve verify catches buggy + replays" `Quick
            test_serve_verify_catches_buggy_and_replays ] ) ]
