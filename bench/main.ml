(* Bechamel micro-benchmarks for the simulator components that
   perfbench does not time.

   perfbench/ (BENCHMARK.json) is the one timing harness: its
   repro-sweep, crash-lockfree and recover-kv workloads time Table 1's
   and the lock-free sweep's cells, DPOR x failure injection and crash
   state sampling, and CI gates on them by running the parent commit
   and the change side by side (.github/perf_gate.py).  This program
   writes no timing file and regenerates no table: `make repro` runs
   the persistsim subcommands that print the paper's evaluation.  It
   prints a time per run for the subjects no perfbench workload covers
   (the KV and served workloads, the drain and cache simulators,
   exploration, the litmus suite, the persistence-buffer path, ...);
   the queue figures' machine-to-engine stream is repro-sweep's.

   BENCH_QUICK=1 shrinks the workloads and the time quota for smoke
   runs.  The program exits 1 when a row has no finite time per run. *)

open Bechamel
open Toolkit

let quick = Sys.getenv_opt "BENCH_QUICK" = Some "1"
let micro_inserts = if quick then 400 else 1200

let banner title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let bench_kv_store =
  Test.make ~name:"workload:kv-store"
    (Staged.stage (fun () ->
         let params =
           Experiments.Kv_exp.kv_params ~threads:2
             ~total_ops:micro_inserts Persistency.Config.Strand
         in
         ignore
           (Experiments.Kv_exp.analyze params
              (Persistency.Config.make Persistency.Config.Strand))))

let bench_serve =
  Test.make ~name:"workload:serve-group-commit"
    (Staged.stage (fun () ->
         ignore
           (Serve.Sim.run
              (Experiments.Serve_exp.serve_params
                 ~requests:micro_inserts ~rate:64. ~key_space:96 ~shards:1
                 ~batch:8 Serve.Sim.epoch_model))))

let bench_drain =
  let params =
    Experiments.Run.queue_params ~total_inserts:micro_inserts
      Experiments.Run.epoch_point
  in
  let _, graph, _ =
    Experiments.Run.analyze_with_graph params
      (Persistency.Config.make Persistency.Config.Epoch)
  in
  Test.make ~name:"nvram:drain-simulation"
    (Staged.stage (fun () ->
         ignore
           (Nvram.Drain.simulate graph ~ops:micro_inserts ~insn_ns_per_op:250.
              ~latency_ns:500. ~depth:16)))

let bench_epoch_hw =
  let params =
    Experiments.Run.queue_params ~total_inserts:micro_inserts
      Experiments.Run.epoch_point
  in
  let trace = Memsim.Trace.create () in
  let _ = Workloads.Queue.run params ~sink:(Memsim.Trace.sink trace) in
  Test.make ~name:"cachesim:epoch-hw"
    (Staged.stage (fun () -> ignore (Cachesim.Epoch_hw.run_trace trace)))

(* The same 2-thread x 2-insert queue explored by DPOR and by
   brute-force DFS — the schedule-count gap (28 vs 5,918 executions)
   is the whole point of lib/check. *)
let explore_run policy =
  let params =
    Check.Driver.queue.params ~threads:2 ~depth:2 ~seed:1
      Memsim.Machine.sc_config Workloads.Queue.Epoch
  in
  ignore
    (Workloads.Queue.run
       { params with Workloads.Queue.policy }
       ~sink:ignore)

let bench_explore_dpor =
  Test.make ~name:"explore:dpor-cwl-d2"
    (Staged.stage (fun () ->
         ignore
           (Check.Dpor.explore
              ~on_exec:(fun _ () -> Check.Dpor.Continue)
              explore_run)))

let bench_explore_brute =
  Test.make ~name:"explore:brute-cwl-d2"
    (Staged.stage (fun () ->
         ignore (Memsim.Explore.run_all ~limit:100_000 explore_run)))

(* The whole litmus suite, exhaustively checked under TSO (every
   store-buffer drain interleaving) — brute force vs DPOR, and under
   the buffered-persistence machine (persistence-buffer drain
   interleavings on top). *)
let bench_litmus how config name =
  Test.make ~name
    (Staged.stage (fun () ->
         List.iter
           (fun t ->
             let r = Litmus.check ~how ~config t in
             if not (Litmus.pass r) then
               failwith ("litmus failed: " ^ t.Litmus.name))
           Litmus.suite))

let bench_litmus_brute =
  bench_litmus Litmus.Brute Memsim.Machine.tso_sync_config
    "litmus:suite-tso-brute"

let bench_litmus_dpor =
  bench_litmus Litmus.Dpor Memsim.Machine.tso_sync_config
    "litmus:suite-tso-dpor"

let bench_litmus_buffered =
  bench_litmus Litmus.Dpor Memsim.Machine.tso_buffered_config
    "litmus:suite-tso-buffered-dpor"

(* Persistence-buffer micro: a single thread streaming
   store+clflushopt pairs through the buffered machine with a trailing
   sfence.  The fence drains the store buffer in place, in the thread's
   own context; round-robin scheduling then retires the persistence
   buffer oldest-first.  Measures the enqueue/eligibility/drain path in
   isolation. *)
let bench_persist_buffer =
  Test.make ~name:"machine:persist-buffer-stream"
    (Staged.stage (fun () ->
         let memory = Memsim.Memory.create () in
         let m =
           Memsim.Machine.create ~model:Memsim.Machine.Tso
             ~persistence:Memsim.Machine.Pbuffered ~memory ()
         in
         Memsim.Machine.set_sink m ignore;
         ignore
           (Memsim.Machine.spawn m (fun () ->
                for i = 0 to 63 do
                  let a = (i mod 16) * 8 in
                  Memsim.Machine.store a (Int64.of_int i);
                  Memsim.Machine.clflushopt a
                done;
                Memsim.Machine.sfence ()));
         Memsim.Machine.run m))

let tests =
  [ bench_kv_store; bench_serve;
    bench_drain; bench_epoch_hw;
    bench_explore_dpor; bench_explore_brute; bench_litmus_brute;
    bench_litmus_dpor; bench_litmus_buffered; bench_persist_buffer ]

let run_benchmarks () =
  banner "MICROBENCHMARKS (Bechamel, monotonic clock)";
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~kde:None ()
  in
  let table =
    Report.Table.create
      ~columns:
        [ ("benchmark", Report.Table.Left);
          ("time/run", Report.Table.Right);
          ("samples", Report.Table.Right);
          ("r^2", Report.Table.Right);
          ("", Report.Table.Left) ]
  in
  let untimed = ref [] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let ols =
            Analyze.OLS.ols ~bootstrap:0 ~r_square:true
              ~responder:(Measure.label Instance.monotonic_clock)
              ~predictors:[| Measure.run |]
              raw.Benchmark.lr
          in
          let time_ns =
            match Analyze.OLS.estimates ols with
            | Some (t :: _) -> t
            | Some [] | None -> Float.nan
          in
          (* a least-squares line through fewer than 3 runs fits them
             exactly or not at all: its r^2 says nothing *)
          let samples = Array.length raw.Benchmark.lr in
          let r2, note =
            match Analyze.OLS.r_square ols with
            | Some r when samples >= 3 && Float.is_finite r ->
              (Printf.sprintf "%.4f" r, "")
            | Some _ | None -> ("-", "too few runs")
          in
          if not (Float.is_finite time_ns) then
            untimed := Test.Elt.name elt :: !untimed;
          let human =
            if not (Float.is_finite time_ns) then "-"
            else if time_ns >= 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
            else if time_ns >= 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
            else if time_ns >= 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
            else Printf.sprintf "%.0f ns" time_ns
          in
          Report.Table.add_row table
            [ Test.Elt.name elt; human; string_of_int samples; r2; note ])
        (Test.elements test))
    tests;
  Report.Table.print table;
  List.rev !untimed

let () =
  (* METRICS_OUT / TRACE_OUT dump the instrumentation registry and the
     span timeline at exit, as in persistsim. *)
  Obs.Setup.from_env ();
  match run_benchmarks () with
  | [] -> print_endline "\nbench: done"
  | untimed ->
    Printf.eprintf "bench: no finite time per run for %s\n"
      (String.concat ", " untimed);
    exit 1
