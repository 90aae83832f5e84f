(* Tests for the NVRAM timing model: throughput conversion and the
   finite-buffer drain simulation. *)

module P = Persistency

let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-6)) msg

let timing ~ops ~cp ~insn ~lat =
  { Nvram.Timing.ops; critical_path = cp; insn_ns_per_op = insn;
    persist_latency_ns = lat }

let test_timing_rates () =
  let t = timing ~ops:1000 ~cp:2000 ~insn:250. ~lat:500. in
  (* 1000 inserts need 2000 * 500ns = 1ms of persists: 1M inserts/s *)
  checkf "persist bound" 1e6 (Nvram.Timing.persist_bound_rate t);
  checkf "instruction rate" 4e6 (Nvram.Timing.instruction_rate t);
  checkf "achievable" 1e6 (Nvram.Timing.achievable_rate t);
  checkf "normalized" 0.25 (Nvram.Timing.normalized t);
  checkb "persist bound flag" true (Nvram.Timing.persist_bound t)

let test_timing_compute_bound () =
  let t = timing ~ops:1000 ~cp:10 ~insn:250. ~lat:500. in
  checkb "not persist bound" false (Nvram.Timing.persist_bound t);
  checkf "achievable capped" 4e6 (Nvram.Timing.achievable_rate t);
  let empty = timing ~ops:1000 ~cp:0 ~insn:250. ~lat:500. in
  checkb "no persists: infinite" true
    (Nvram.Timing.persist_bound_rate empty = Float.infinity)

let test_break_even () =
  checkf "strict cwl knee" (250. /. 15.)
    (Nvram.Timing.break_even_latency_ns ~cp_per_op:15. ~insn_ns_per_op:250.);
  checkb "no persists never bound" true
    (Nvram.Timing.break_even_latency_ns ~cp_per_op:0. ~insn_ns_per_op:250.
    = Float.infinity)

(* Drain simulation *)

let chain_graph n =
  (* n persists in a single dependence chain *)
  let g = P.Persist_graph.create () in
  for i = 0 to n - 1 do
    let deps = if i = 0 then P.Iset.empty else P.Iset.singleton (i - 1) in
    ignore
      (P.Persist_graph.add_node g ~tid:0 ~level:(i + 1) ~deps
         { P.Persist_graph.addr = 8; size = 8; value = 0L })
  done;
  g

let independent_graph n =
  let g = P.Persist_graph.create () in
  for i = 0 to n - 1 do
    ignore
      (P.Persist_graph.add_node g ~tid:0 ~level:1 ~deps:P.Iset.empty
         { P.Persist_graph.addr = 8 * (i + 1); size = 8; value = 0L })
  done;
  g

let test_drain_chain_is_serial () =
  let g = chain_graph 100 in
  let r =
    Nvram.Drain.simulate g ~ops:100 ~insn_ns_per_op:10. ~latency_ns:500.
      ~depth:max_int
  in
  (* a 100-deep chain takes at least 100 * 500ns *)
  checkb "serial drain" true (r.Nvram.Drain.total_ns >= 100. *. 500.);
  checkb "close to bound" true (r.Nvram.Drain.total_ns < 101. *. 500. +. 1000.)

let test_drain_independent_parallel () =
  let g = independent_graph 100 in
  let r =
    Nvram.Drain.simulate g ~ops:100 ~insn_ns_per_op:10. ~latency_ns:500.
      ~depth:max_int
  in
  (* all persists overlap: makespan ~ emission time + one latency *)
  checkb "parallel drain" true (r.Nvram.Drain.total_ns <= 1000. +. 600.)

let test_drain_depth_one_serializes () =
  let g = independent_graph 50 in
  let r =
    Nvram.Drain.simulate g ~ops:50 ~insn_ns_per_op:10. ~latency_ns:500.
      ~depth:1
  in
  (* with one buffer slot even independent persists serialize *)
  checkb "depth-1 serial" true (r.Nvram.Drain.total_ns >= 50. *. 500.);
  checkb "stalls recorded" true (r.Nvram.Drain.emit_stall_ns > 0.)

let test_drain_monotone_in_depth () =
  let params =
    { Workloads.Queue.design = Workloads.Queue.Cwl;
      annotation = Workloads.Queue.Epoch;
      threads = 1;
      inserts_per_thread = 200;
      entry_size = 100;
      capacity_entries = 32;
      seed = 2;
      policy = Memsim.Machine.Round_robin;
      machine = Memsim.Machine.Sc;
      persistence = Memsim.Machine.Psync;
      barrier = Memsim.Machine.Pbarrier }
  in
  let cfg = P.Config.make ~record_graph:true P.Config.Epoch in
  let engine = P.Engine.create cfg in
  let _ = Workloads.Queue.run params ~sink:(P.Engine.observe engine) in
  let g = Option.get (P.Engine.graph engine) in
  let rate depth =
    (Nvram.Drain.simulate g ~ops:200 ~insn_ns_per_op:250. ~latency_ns:500.
       ~depth)
      .Nvram.Drain.ops_per_sec
  in
  let rates = List.map rate [ 1; 4; 16; 64 ] in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-6 && ascending rest
    | [ _ ] | [] -> true
  in
  checkb "throughput grows with depth" true (ascending rates)

let test_drain_persist_sync () =
  (* syncing after every op forfeits buffering: independent persists
     become nearly serial; a rare sync costs almost nothing *)
  let g = independent_graph 100 in
  let run ?sync_every () =
    (Nvram.Drain.simulate ?sync_every g ~ops:100 ~insn_ns_per_op:10.
       ~latency_ns:500. ~depth:max_int)
      .Nvram.Drain.total_ns
  in
  let free = run () in
  let sync_each = run ~sync_every:1 () in
  let sync_rare = run ~sync_every:50 () in
  checkb "sync each op serializes" true (sync_each >= 99. *. 500.);
  checkb "rare sync cheap" true (sync_rare < 3. *. free +. 1500.);
  checkb "ordering" true (free <= sync_rare && sync_rare <= sync_each);
  Alcotest.match_raises "bad sync"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore
        (Nvram.Drain.simulate ~sync_every:0 g ~ops:1 ~insn_ns_per_op:1.
           ~latency_ns:1. ~depth:1))

let test_drain_empty_graph () =
  let g = P.Persist_graph.create () in
  let r =
    Nvram.Drain.simulate g ~ops:10 ~insn_ns_per_op:100. ~latency_ns:500.
      ~depth:4
  in
  checkf "native time" 1000. r.Nvram.Drain.total_ns

let test_drain_validation () =
  Alcotest.match_raises "bad depth"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore
        (Nvram.Drain.simulate (chain_graph 1) ~ops:1 ~insn_ns_per_op:1.
           ~latency_ns:1. ~depth:0))

let () =
  Alcotest.run "nvram"
    [ ( "timing",
        [ Alcotest.test_case "rates" `Quick test_timing_rates;
          Alcotest.test_case "compute bound" `Quick test_timing_compute_bound;
          Alcotest.test_case "break even" `Quick test_break_even ] );
      ( "drain",
        [ Alcotest.test_case "chain serial" `Quick test_drain_chain_is_serial;
          Alcotest.test_case "independent parallel" `Quick
            test_drain_independent_parallel;
          Alcotest.test_case "depth one" `Quick test_drain_depth_one_serializes;
          Alcotest.test_case "monotone in depth" `Quick
            test_drain_monotone_in_depth;
          Alcotest.test_case "persist sync" `Quick test_drain_persist_sync;
          Alcotest.test_case "empty graph" `Quick test_drain_empty_graph;
          Alcotest.test_case "validation" `Quick test_drain_validation ] ) ]
