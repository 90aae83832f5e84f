(* The observability layer: JSON round-trips, the metrics registry
   (bucketing, disabled-mode no-ops, engine counters vs the registry
   dump), the span tracer (balanced, well-formed Chrome trace JSON) and
   the persist-graph inspectors (critical chain vs engine critical
   path, DOT/JSONL shape, the --explain walk). *)

module J = Obs.Json
module M = Obs.Metrics
module P = Persistency

let parse s =
  match J.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "JSON parse error: %s\nin: %s" msg s

let member name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON field %S in %s" name (J.to_string j)

(* Json *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("a", J.Int 42); ("b", J.Float 1.5); ("s", J.Str "x\"y\n");
        ("l", J.List [ J.Null; J.Bool true; J.Bool false ]);
        ("neg", J.Int (-7)) ]
  in
  Alcotest.(check bool) "round-trips" true (parse (J.to_string v) = v);
  (match J.of_string "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match J.of_string "[1, 2.0, -3e2]" with
  | Ok (J.List [ J.Int 1; J.Float 2.0; J.Float -300. ]) -> ()
  | other ->
    Alcotest.failf "number parsing: %s"
      (match other with Ok v -> J.to_string v | Error e -> e)

(* Metrics *)

let test_counter_and_gauge () =
  let r = M.create () in
  M.set_enabled r true;
  let c = M.counter r "c" in
  let g = M.gauge_max r "g" in
  M.incr c;
  M.add c 4;
  M.observe_max g 2.5;
  M.observe_max g 1.0;
  Alcotest.(check int) "counter" 5 (M.counter_value c);
  Alcotest.(check (float 0.)) "gauge keeps max" 2.5 (M.gauge_value g);
  Alcotest.(check bool) "same name, same instrument" true
    (M.counter_value (M.counter r "c") = 5);
  (match M.gauge_max r "c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash accepted");
  M.reset r;
  Alcotest.(check int) "reset zeroes counters" 0 (M.counter_value c);
  Alcotest.(check (float 0.)) "reset zeroes gauges" 0. (M.gauge_value g)

let test_histogram_bucketing () =
  let r = M.create () in
  M.set_enabled r true;
  let h = M.histogram r "h" ~buckets:[| 1.; 2.; 4. |] in
  List.iter (M.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 100.0 ];
  Alcotest.(check int) "count" 7 (M.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 112.0 (M.histogram_sum h);
  Alcotest.(check (list (pair (float 0.) int)))
    "inclusive upper bounds, overflow last"
    [ (1., 2); (2., 2); (4., 2); (infinity, 1) ]
    (M.histogram_buckets h);
  (match M.histogram r "bad" ~buckets:[| 2.; 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-ascending buckets accepted");
  match M.histogram r "h" ~buckets:[| 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bucket mismatch accepted"

let test_disabled_is_noop () =
  let r = M.create () in
  let c = M.counter r "c" in
  let g = M.gauge_max r "g" in
  let h = M.histogram r "h" ~buckets:[| 1. |] in
  M.incr c;
  M.add c 10;
  M.observe_max g 5.;
  M.observe h 0.5;
  Alcotest.(check int) "counter untouched" 0 (M.counter_value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0. (M.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (M.histogram_count h);
  (* enabling later starts counting *)
  M.set_enabled r true;
  M.incr c;
  Alcotest.(check int) "counts once enabled" 1 (M.counter_value c)

let test_pow2_buckets () =
  Alcotest.(check (list (float 0.)))
    "1, 2, 4, 8" [ 1.; 2.; 4.; 8. ]
    (Array.to_list (M.pow2_buckets 4))

(* Engine counters vs the registry dump.  The default registry is
   process-wide state shared with every other test in this executable,
   so reset it around the check. *)

let find_metric dump name =
  let metrics =
    match member "metrics" dump with
    | J.List l -> l
    | _ -> Alcotest.fail "\"metrics\" is not a list"
  in
  match
    List.find_opt
      (fun m -> match J.member "name" m with
        | Some (J.Str n) -> n = name
        | _ -> false)
      metrics
  with
  | Some m -> m
  | None -> Alcotest.failf "metric %S not in dump" name

let metric_value dump name =
  match J.to_float (member "value" (find_metric dump name)) with
  | Some v -> v
  | None -> Alcotest.failf "metric %S has no numeric value" name

let test_metrics_dump_matches_engine () =
  M.reset M.default;
  M.set_enabled M.default true;
  let engine, inserts =
    Fun.protect
      ~finally:(fun () -> M.set_enabled M.default false)
      (fun () ->
        let params =
          Experiments.Run.queue_params ~threads:2 ~total_inserts:200
            Experiments.Run.epoch_point
        in
        let trace = Memsim.Trace.create () in
        let result =
          Workloads.Queue.run params ~sink:(Memsim.Trace.sink trace)
        in
        let engine = P.Engine.create (P.Config.make P.Config.Epoch) in
        P.Engine.observe_trace engine trace;
        (engine, result.Workloads.Queue.inserts))
  in
  let dump = parse (J.to_string (M.to_json M.default)) in
  let check name expected =
    Alcotest.(check (float 0.)) name (float_of_int expected)
      (metric_value dump name)
  in
  check "engine.events" (P.Engine.events engine);
  check "engine.persist_events" (P.Engine.persist_events engine);
  check "engine.persist_ops" (P.Engine.persist_ops engine);
  check "engine.coalesced" (P.Engine.coalesced engine);
  check "engine.critical_path_max" (P.Engine.critical_path engine);
  (* histograms are present and populated *)
  let level = find_metric dump "engine.persist_level" in
  (match J.to_float (member "count" level) with
  | Some c when c > 0. -> ()
  | _ -> Alcotest.fail "engine.persist_level has no observations");
  (* the workload layer registered too *)
  check "workload.queue.inserts" inserts

let test_kv_and_recovery_metrics () =
  M.reset M.default;
  let params =
    Experiments.Kv_exp.kv_params ~threads:2 ~total_ops:16 P.Config.Epoch
  in
  (* disabled: the instrumented run must leave the registry untouched *)
  let disabled_run = Kv.run params ~sink:ignore in
  let counter name = M.counter_value (M.counter M.default name) in
  Alcotest.(check int) "disabled: puts untouched" 0 (counter "workload.kv.puts");
  Alcotest.(check int) "disabled: probes untouched" 0
    (counter "workload.kv.probes");
  (* enabled: one analyzed run plus one sampled recovery check *)
  M.set_enabled M.default true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled M.default false)
    (fun () ->
      let _, graph, layout =
        Experiments.Kv_exp.analyze_with_graph params
          (P.Config.make P.Config.Epoch)
      in
      (match
         Kv_recovery.verify ~params ~layout ~graph
           ~strategy:(Recovery.Sampled { samples = 20; seed = 1 })
       with
      | Ok _ -> ()
      | Error f -> Alcotest.fail (Recovery.render_failure f));
      Alcotest.(check int) "puts counted" disabled_run.Kv.puts
        (counter "workload.kv.puts");
      Alcotest.(check int) "gets counted" disabled_run.Kv.gets
        (counter "workload.kv.gets");
      Alcotest.(check int) "probes counted" disabled_run.Kv.probes
        (counter "workload.kv.probes");
      Alcotest.(check int) "one log append per put" disabled_run.Kv.puts
        (counter "workload.kv.log_appends");
      Alcotest.(check int) "one recovery check" 1 (counter "recovery.checks");
      Alcotest.(check int) "every sampled prefix counted" 20
        (counter "recovery.prefixes");
      Alcotest.(check int) "no violations" 0 (counter "recovery.violations");
      let dump = parse (J.to_string (M.to_json M.default)) in
      match J.to_float (member "count" (find_metric dump "workload.kv.probe_len")) with
      | Some c when c > 0. -> ()
      | _ -> Alcotest.fail "workload.kv.probe_len has no observations")

(* The TSO machine's store-buffer instruments: drains, flushes, fences
   and the occupancy histogram must register under the expected names,
   count a real run's activity, and stay untouched (zero-cost path)
   while the registry is disabled. *)
let test_machine_tso_metrics () =
  M.reset M.default;
  let sb_run () =
    let memory = Memsim.Memory.create () in
    let machine =
      Memsim.Machine.create ~model:Memsim.Machine.Tso ~memory ()
    in
    Memsim.Machine.set_sink machine ignore;
    let x = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
    let y = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
    ignore
      (Memsim.Machine.spawn machine (fun () ->
           Memsim.Machine.store x 1L;
           Memsim.Machine.store x 2L;
           Memsim.Machine.clflushopt x;
           Memsim.Machine.sfence ();
           Memsim.Machine.store y 1L;
           Memsim.Machine.mfence ()));
    Memsim.Machine.run machine
  in
  let counter name = M.counter_value (M.counter M.default name) in
  (* disabled: the instrumented machine must leave the registry alone *)
  sb_run ();
  Alcotest.(check int) "disabled: drains untouched" 0
    (counter "machine.store_buffer_drains");
  Alcotest.(check int) "disabled: occupancy untouched" 0
    (M.histogram_count
       (M.histogram M.default ~buckets:(M.pow2_buckets 7)
          "machine.store_buffer_occupancy"));
  M.set_enabled M.default true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled M.default false)
    (fun () ->
      sb_run ();
      (* 3 stores + 1 flush pass through the buffer *)
      Alcotest.(check int) "drains" 4 (counter "machine.store_buffer_drains");
      Alcotest.(check int) "flushes" 1 (counter "machine.flushes");
      Alcotest.(check int) "fences" 2 (counter "machine.fences");
      let h =
        M.histogram M.default ~buckets:(M.pow2_buckets 7)
          "machine.store_buffer_occupancy"
      in
      Alcotest.(check int) "occupancy observed per push" 4
        (M.histogram_count h);
      Alcotest.(check bool) "occupancy sum positive" true
        (M.histogram_sum h > 0.))

(* Engine.run's tracer branch: with the tracer on, a run is
   materialized between a "trace generation" and an "engine analysis"
   span.  The engine must see the same events either way, for the
   sweep analyses and for DPOR executions alike. *)

(* [f ()] with the tracer on; returns its result and the number of
   [ph] events named [name] it recorded. *)
let with_tracer f =
  Obs.Tracer.clear ();
  Obs.Tracer.enable ();
  let r = f () in
  let j = parse (J.to_string (Obs.Tracer.to_json ())) in
  let events =
    match member "traceEvents" j with
    | J.List l -> l
    | _ -> Alcotest.fail "traceEvents is not a list"
  in
  Obs.Tracer.clear ();
  let is field v ev =
    match member field ev with J.Str s -> String.equal s v | _ -> false
  in
  let count name ph =
    List.length
      (List.filter (fun ev -> is "name" name ev && is "ph" ph ev) events)
  in
  (r, count)

(* Checks both phases' spans are balanced; returns their counts. *)
let phase_spans count =
  let balanced name =
    let b = count name "B" in
    Alcotest.(check int) (name ^ " spans balanced") b (count name "E");
    b
  in
  (balanced "trace generation", balanced "engine analysis")

let test_tracer_branch_equivalence () =
  Fun.protect ~finally:Obs.Tracer.clear @@ fun () ->
  let module R = Experiments.Run in
  let module K = Experiments.Kv_exp in
  let module L = Experiments.Lockfree_exp in
  let cfg = P.Config.make P.Config.Epoch in
  let fp g = P.Graph_export.fingerprint g in
  let queue () =
    let params = R.queue_params ~threads:2 ~total_inserts:40 R.epoch_point in
    let m, g, _ = R.analyze_with_graph params cfg in
    (R.analyze params cfg, m, fp g)
  in
  let kv () =
    let params = K.kv_params ~threads:2 ~total_ops:64 P.Config.Epoch in
    let m, g, _ = K.analyze_with_graph params cfg in
    (K.analyze params cfg, m, fp g)
  in
  let lockfree () =
    let params =
      L.set_params ~inserts:16 ~mconfig:Memsim.Machine.tso_buffered_config
        Lockfree.Cas_set.Nvtraverse
    in
    let m, g, _ = L.analyze_with_graph params cfg in
    (L.analyze params cfg, m, fp g)
  in
  let same name run =
    let streamed = run () in
    let traced, count = with_tracer run in
    Alcotest.(check bool) (name ^ ": metrics and fingerprint") true
      (streamed = traced);
    Alcotest.(check (pair int int)) (name ^ ": one span pair per run")
      (2, 2) (phase_spans count)
  in
  same "queue" queue;
  same "kv" kv;
  same "lockfree" lockfree;
  (* one run fanned out to several engines: one span pair in all *)
  let shared () =
    R.analyze_many
      (R.queue_params ~threads:2 ~total_inserts:40 R.epoch_point)
      [ (Workloads.Queue.Epoch, cfg);
        (Workloads.Queue.Racing, P.Config.make ~coalescing:false P.Config.Epoch)
      ]
  in
  let streamed = shared () in
  let traced, count = with_tracer shared in
  Alcotest.(check bool) "shared: metrics" true (streamed = traced);
  Alcotest.(check (pair int int)) "shared: one span pair" (1, 1)
    (phase_spans count);
  (* a DPOR check on the buggy KV discipline: same exploration, same
     counter-example; every execution opens a generation span, those
     run to completion an analysis span *)
  let dpor () =
    let params =
      Check.Driver.kv.params ~threads:2 ~depth:2 ~seed:1
        Memsim.Machine.sc_config Kv.Buggy_undo
    in
    let r =
      Check.Driver.check ~max_schedules:512
        ~strategy:(Recovery.auto ~samples:64 ~seed:1)
        (Check.Driver.instance Check.Driver.kv params cfg)
    in
    ( r.Check.Driver.stats,
      (r.distinct, r.checked, r.prefixes),
      Option.map (fun (s, _) -> Check.Schedule.to_string s) r.failure )
  in
  let streamed = dpor () in
  let ((stats, _, failure) as traced), count = with_tracer dpor in
  Alcotest.(check bool) "dpor: report" true (streamed = traced);
  Alcotest.(check bool) "dpor: violation found" true (failure <> None);
  Alcotest.(check (pair int int)) "dpor: spans per execution"
    (stats.Check.Dpor.schedules + stats.sleep_aborts, stats.schedules)
    (phase_spans count)


(* Tracer *)

let test_trace_json_balanced () =
  Obs.Tracer.clear ();
  Obs.Tracer.enable ();
  Obs.Tracer.with_span ~cat:"phase" "outer" (fun () ->
      Obs.Tracer.with_span ~cat:"cell" ~args:[ ("index", "0") ] "inner"
        (fun () -> ());
      Obs.Tracer.instant "marker");
  (* a raising thunk still closes its span *)
  (try
     Obs.Tracer.with_span "raiser" (fun () -> raise Exit)
   with Exit -> ());
  let j = parse (J.to_string (Obs.Tracer.to_json ())) in
  Obs.Tracer.clear ();
  let events =
    match member "traceEvents" j with
    | J.List l -> l
    | _ -> Alcotest.fail "traceEvents is not a list"
  in
  Alcotest.(check int) "3 B + 3 E + 1 i" 7 (List.length events);
  let depth = ref 0 in
  List.iter
    (fun ev ->
      let str name =
        match member name ev with
        | J.Str s -> s
        | _ -> Alcotest.failf "event field %S missing/not a string" name
      in
      (* every event is well-formed: name, ph, numeric ts/pid/tid *)
      ignore (str "name");
      List.iter
        (fun f ->
          match J.to_float (member f ev) with
          | Some _ -> ()
          | None -> Alcotest.failf "event field %S not numeric" f)
        [ "ts"; "pid"; "tid" ];
      match str "ph" with
      | "B" -> incr depth
      | "E" ->
        decr depth;
        if !depth < 0 then Alcotest.fail "E before matching B"
      | "i" -> ()
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    events;
  Alcotest.(check int) "spans balanced" 0 !depth

let test_trace_disabled_records_nothing () =
  Obs.Tracer.clear ();
  Obs.Tracer.with_span "ignored" (fun () -> ());
  Obs.Tracer.instant "ignored";
  Alcotest.(check int) "no events" 0 (Obs.Tracer.event_count ())

(* Graph inspectors *)

let recorded_engine () =
  let params =
    Experiments.Run.queue_params ~threads:2 ~total_inserts:16
      ~capacity_entries:16 Experiments.Run.epoch_point
  in
  let m, graph, _ =
    Experiments.Run.analyze_with_graph params
      (P.Config.make P.Config.Epoch)
  in
  (m, graph)

let test_critical_chain_length () =
  let m, graph = recorded_engine () in
  let chain = P.Graph_export.critical_chain graph in
  Alcotest.(check int) "chain length = engine critical path"
    m.Experiments.Run.critical_path (List.length chain);
  (* the chain really is a dependence chain, in order *)
  List.iteri
    (fun i id ->
      if i > 0 then
        let n = P.Persist_graph.get graph id in
        let prev = List.nth chain (i - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "n%d persists after n%d" id prev)
          true
          (P.Iset.mem prev n.P.Persist_graph.deps))
    chain

let test_dot_export () =
  let _, graph = recorded_engine () in
  let chain = P.Graph_export.critical_chain graph in
  let dot = Format.asprintf "%a" P.Graph_export.to_dot graph in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 8 && String.sub dot 0 8 = "digraph ");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* every chain node is highlighted *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "n%d highlighted" id)
        true
        (contains (Printf.sprintf "n%d [label=" id) dot))
    chain;
  Alcotest.(check bool) "critical color present" true
    (contains "color=red" dot);
  (* level and thread annotations appear in node labels *)
  Alcotest.(check bool) "level annotation" true (contains "level " dot);
  Alcotest.(check bool) "tid annotation" true (contains "tid " dot)

let test_jsonl_export () =
  let m, graph = recorded_engine () in
  let jsonl = Format.asprintf "%a" P.Graph_export.to_jsonl graph in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one line per node"
    (P.Persist_graph.node_count graph)
    (List.length lines);
  let criticals = ref 0 in
  List.iter
    (fun line ->
      let j = parse line in
      List.iter
        (fun f -> ignore (member f j))
        [ "id"; "tid"; "level"; "critical"; "writes"; "deps" ];
      match member "critical" j with
      | J.Bool true -> incr criticals
      | J.Bool false -> ()
      | _ -> Alcotest.fail "critical is not a bool")
    lines;
  Alcotest.(check int) "critical nodes = critical path"
    m.Experiments.Run.critical_path !criticals

let test_explain_walk () =
  let m, graph = recorded_engine () in
  let out = Format.asprintf "%a" P.Graph_export.explain graph in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  (* one header plus one line per level of the critical path *)
  Alcotest.(check int) "header + one line per level"
    (m.Experiments.Run.critical_path + 1)
    (List.length lines)

(* Pool percentile helper *)

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p95 of 1..100" 95.
    (Pstats.Summary.percentile 0.95 xs);
  Alcotest.(check (float 0.)) "p0 is min" 1.
    (Pstats.Summary.percentile 0. xs);
  Alcotest.(check (float 0.)) "p100 is max" 100.
    (Pstats.Summary.percentile 1. xs);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Pstats.Summary.percentile 0.5 []));
  match Pstats.Summary.percentile 1.5 xs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range p accepted"

let test_render_profile_na () =
  let p =
    { Parallel.Pool.domains = 1;
      wall_seconds = 0.;
      cells = [ ("only", 0.) ] }
  in
  let s = Parallel.Pool.render_profile p in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "zero wall clock says n/a" true
    (contains "speedup n/a" s);
  Alcotest.(check bool) "p95 present" true (contains "p95" s)

(* Perfscope: measurement layer *)

let test_measure_gc_delta () =
  let v, d =
    (* enough allocation to cross several minor collections: OCaml 5's
       [quick_stat] only folds a domain's minor words in at collection
       boundaries *)
    Obs.Perfscope.measure (fun () ->
        let acc = ref [] in
        for i = 1 to 500_000 do
          acc := (i, i) :: !acc
        done;
        List.length !acc)
  in
  Alcotest.(check int) "thunk result" 500_000 v;
  Alcotest.(check bool) "wall non-negative" true (d.Obs.Perfscope.wall_s >= 0.);
  Alcotest.(check bool) "minor words non-negative" true
    (d.Obs.Perfscope.minor_words >= 0.);
  Alcotest.(check bool) "major words non-negative" true
    (d.Obs.Perfscope.major_words >= 0.);
  Alcotest.(check bool) "promoted words non-negative" true
    (d.Obs.Perfscope.promoted_words >= 0.);
  Alcotest.(check bool) "collections non-negative" true
    (d.Obs.Perfscope.minor_collections >= 0
    && d.Obs.Perfscope.major_collections >= 0);
  (* 10k two-field tuples in a list cannot allocate zero words *)
  Alcotest.(check bool) "allocating thunk shows allocation" true
    (Obs.Perfscope.alloc_words d > 0.);
  (* a raising thunk still propagates its exception *)
  match Obs.Perfscope.measure (fun () -> raise Exit) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "exception swallowed"

let test_span_disabled_touches_nothing () =
  M.reset M.default;
  Obs.Tracer.clear ();
  let counter name = M.counter_value (M.counter M.default name) in
  Obs.Perfscope.with_span "quiet" (fun () ->
      ignore (Sys.opaque_identity (List.init 10_000 (fun i -> (i, i)))));
  Alcotest.(check int) "gc.minor_words untouched" 0 (counter "gc.minor_words");
  Alcotest.(check int) "gc.minor_collections untouched" 0
    (counter "gc.minor_collections");
  Alcotest.(check (float 0.)) "rss gauge untouched" 0.
    (M.gauge_value (M.gauge_max M.default "proc.peak_rss_kb"));
  Alcotest.(check int) "no trace events" 0 (Obs.Tracer.event_count ())

let test_span_accounts_gc () =
  M.reset M.default;
  M.set_enabled M.default true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled M.default false)
    (fun () ->
      Obs.Perfscope.with_span "loud" (fun () ->
          ignore (Sys.opaque_identity (List.init 100_000 (fun i -> (i, i)))));
      let counter name = M.counter_value (M.counter M.default name) in
      Alcotest.(check bool) "gc.minor_words counted" true
        (counter "gc.minor_words" > 0);
      Alcotest.(check bool) "rss gauge sampled" true
        (M.gauge_value (M.gauge_max M.default "proc.peak_rss_kb") > 0.))

let test_rate_and_rss () =
  let r = M.create () in
  M.set_enabled r true;
  let g = M.gauge_max r "rate" in
  Obs.Perfscope.throughput g ~items:5 ~seconds:0.;
  Alcotest.(check (float 0.)) "zero wall clock yields no rate" 0.
    (M.gauge_value g);
  Obs.Perfscope.throughput g ~items:100 ~seconds:2.0;
  Alcotest.(check (float 0.)) "items per second" 50. (M.gauge_value g);
  (* Linux: /proc/self/status is present and VmHWM is positive *)
  Alcotest.(check bool) "peak rss positive" true
    (Obs.Perfscope.peak_rss_kb () > 0)

let test_render_progress () =
  let r = Obs.Perfscope.render_progress in
  Alcotest.(check string) "no rate yet" "x: 0/10 (0.0%) ?/s eta ?"
    (r ~label:"x" ~completed:0 ~total:10 ~elapsed_s:0. ());
  Alcotest.(check string) "midway" "x: 5/10 (50.0%) 2.5/s eta 2.0s"
    (r ~label:"x" ~completed:5 ~total:10 ~elapsed_s:2. ());
  Alcotest.(check string) "complete" "x: 10/10 (100.0%) 2.5/s eta 0.0s"
    (r ~label:"x" ~completed:10 ~total:10 ~elapsed_s:4. ());
  Alcotest.(check string) "long etas switch to minutes"
    "x: 1/241 (0.4%) 1.0/s eta 4.0min"
    (r ~label:"x" ~completed:1 ~total:241 ~elapsed_s:1. ());
  Alcotest.(check string) "no total: count and rate" "y: 300 done, 150.0/s"
    (r ~label:"y" ~completed:300 ~elapsed_s:2. ())

let test_progress_scope () =
  Alcotest.(check bool) "off by default" false
    (Obs.Perfscope.progress_enabled ());
  (* disabled: the scope is inert *)
  let p = Obs.Perfscope.progress_start ~total:2 "inert" in
  Obs.Perfscope.progress_step p;
  Obs.Perfscope.progress_finish p;
  (* enabled: stepping and finishing emit to stderr without error *)
  Obs.Perfscope.set_progress ~interval_s:0. true;
  Fun.protect
    ~finally:(fun () -> Obs.Perfscope.set_progress false)
    (fun () ->
      Alcotest.(check bool) "enabled" true (Obs.Perfscope.progress_enabled ());
      let p = Obs.Perfscope.progress_start ~total:3 "test progress" in
      for _ = 1 to 3 do
        Obs.Perfscope.progress_step p
      done;
      Obs.Perfscope.progress_finish p)

(* Histogram raw-sample percentiles *)

let test_histogram_percentiles () =
  let r = M.create () in
  M.set_enabled r true;
  let h = M.histogram r "h" ~buckets:(M.pow2_buckets 8) in
  let empty = M.histogram r "empty" ~buckets:(M.pow2_buckets 8) in
  for i = 1 to 100 do
    M.observe h (float_of_int i)
  done;
  let samples = M.histogram_samples h in
  Alcotest.(check int) "all observations sampled" 100 (List.length samples);
  Alcotest.(check (option (float 0.))) "p95 matches Pstats"
    (Some (Pstats.Summary.percentile 0.95 samples))
    (M.histogram_percentile h 0.95);
  Alcotest.(check (option (float 0.))) "p95 of 1..100" (Some 95.)
    (M.histogram_percentile h 0.95);
  Alcotest.(check (option (float 0.))) "p99 of 1..100" (Some 99.)
    (M.histogram_percentile h 0.99);
  Alcotest.(check (option (float 0.))) "empty percentile is none" None
    (M.histogram_percentile empty 0.95);
  (* the JSON dump carries p95/p99 for populated histograms *)
  let dump = parse (J.to_string (M.to_json r)) in
  let hj = find_metric dump "h" in
  (match (J.to_float (member "p95" hj), J.to_float (member "p99" hj)) with
  | Some p95, Some p99 ->
    Alcotest.(check (float 0.)) "dump p95" 95. p95;
    Alcotest.(check (float 0.)) "dump p99" 99. p99
  | _ -> Alcotest.fail "p95/p99 not numeric in dump");
  (match member "p95" (find_metric dump "empty") with
  | J.Null -> ()
  | j -> Alcotest.failf "empty histogram p95 should be null, got %s"
           (J.to_string j));
  let count name j =
    match member name j with
    | J.Int n -> n
    | j -> Alcotest.failf "field %S: %s" name (J.to_string j)
  in
  Alcotest.(check (pair int int)) "tail over every observation" (100, 100)
    (count "count" hj, count "tail_count" hj);
  (* past the 4096-observation window the tails say they are bounded:
     they cover the earliest observations only *)
  let big = M.histogram r "big" ~buckets:(M.pow2_buckets 8) in
  for i = 1 to 5000 do
    M.observe big (float_of_int i)
  done;
  let bj = find_metric (parse (J.to_string (M.to_json r))) "big" in
  Alcotest.(check (pair int int)) "tail over a truncated window" (5000, 4096)
    (count "count" bj, count "tail_count" bj);
  Alcotest.(check (option (float 0.))) "p99 of the first 4096" (Some 4056.)
    (M.histogram_percentile big 0.99);
  M.reset r;
  Alcotest.(check int) "reset drops samples" 0
    (List.length (M.histogram_samples h))

(* Runinfo: the --manifest-out file is one line of JSON describing the
   process that wrote it *)

let test_manifest_roundtrip () =
  let tmp = Filename.temp_file "manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Obs.Runinfo.write_file ~tool:"test" tmp;
      let m = parse (In_channel.with_open_text tmp In_channel.input_all) in
      let str name =
        match member name m with
        | J.Str s -> s
        | j -> Alcotest.failf "field %S: %s" name (J.to_string j)
      in
      Alcotest.(check string) "schema" "persistsim-run/2" (str "schema");
      Alcotest.(check string) "tool" "test" (str "tool");
      Alcotest.(check string) "ocaml version captured" Sys.ocaml_version
        (str "ocaml");
      Alcotest.(check bool) "git described" true (str "git" <> "");
      (match member "argv" m with
      | J.List (J.Str _ :: _) -> ()
      | j -> Alcotest.failf "argv: %s" (J.to_string j));
      match member "cores" m with
      | J.Int n -> Alcotest.(check bool) "cores positive" true (n > 0)
      | j -> Alcotest.failf "cores: %s" (J.to_string j))

(* CLI surface: every persistsim subcommand must expose the
   observability flags.  Enumerate the subcommands from the main help
   so a newly added command cannot dodge the audit. *)

(* Resolved against the test binary so the audit works from both
   [dune runtest] (cwd = test dir) and [dune exec] (cwd = root). *)
let persistsim =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/persistsim.exe"

let run_lines cmd =
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> List.rev !lines
  | _ -> Alcotest.failf "command failed: %s" cmd

let subcommands () =
  let lines = run_lines (persistsim ^ " --help=plain 2>/dev/null") in
  let rec section = function
    | [] -> []
    | "COMMANDS" :: rest -> rest
    | _ :: rest -> section rest
  in
  let rec collect acc = function
    | [] -> List.rev acc
    | line :: rest ->
      if line <> "" && line.[0] <> ' ' then List.rev acc (* next section *)
      else
        let t = String.trim line in
        (* command lines are the least-indented entries: "name [OPTION]…" *)
        if
          t <> ""
          && String.length line > 7
          && line.[6] = ' '
          && line.[7] <> ' '
        then
          match String.split_on_char ' ' t with
          | name :: _ -> collect (name :: acc) rest
          | [] -> collect acc rest
        else collect acc rest
  in
  collect [] (section lines)

let test_subcommands_expose_obs_flags () =
  let cmds = subcommands () in
  Alcotest.(check bool) "subcommands enumerated" true (List.length cmds >= 18);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun cmd ->
      let help =
        String.concat "\n"
          (run_lines (Printf.sprintf "%s %s --help=plain 2>/dev/null"
                        persistsim cmd))
      in
      List.iter
        (fun flag ->
          Alcotest.(check bool)
            (Printf.sprintf "%s lists %s" cmd flag)
            true (contains flag help))
        [ "--metrics-out"; "--trace-out"; "--manifest-out"; "--progress" ])
    cmds

(* Exit-code contract: a subcommand that detects a violation (or fails
   to demonstrate one it was asked to demonstrate with --buggy) must
   exit non-zero; clean runs and successful demonstrations exit 0. *)
(* Exit code and output lines (standard output and error) of [cmd]. *)
let exit_and_output cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED n -> (n, List.rev !lines)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.failf "%s killed" cmd

let exit_code cmd = fst (exit_and_output (cmd ^ " >/dev/null"))

let test_exit_codes () =
  let checke name expected cmd =
    Alcotest.(check int) name expected (exit_code (persistsim ^ " " ^ cmd))
  in
  (* clean runs *)
  checke "explore safe" 0 "explore --workload kv --depth 2";
  (* depth 1 keeps the audit fast: depth 2 is no longer exhaustively
     explorable now that fence commits race with persistent stores, and
     the default --model all would pay that three times over *)
  checke "lockfree safe" 0
    "lockfree --recovery --discipline nvtraverse --depth 1 --model sc";
  (* a caught bug is a successful demonstration *)
  checke "explore buggy caught" 0 "explore --workload kv --buggy --depth 2";
  checke "lockfree buggy caught" 0 "lockfree --buggy --depth 1 --model sc";
  checke "explore lockfree safe" 0 "explore --workload lockfree --depth 1";
  checke "explore lockfree buggy caught" 0
    "explore --workload lockfree --buggy --depth 2";
  checke "recovery buggy caught" 0 "recovery --buggy";
  (* a missed bug must not exit clean: Buggy_undo's dropped seal->slot
     barrier is masked by strict persistency, so the demonstration
     deterministically fails to fire there *)
  checke "explore buggy missed" 1
    "explore --workload kv --model strict --buggy --depth 2";
  (* likewise Buggy_epoch's dropped data->head barrier under strict *)
  checke "recovery buggy missed" 1 "recovery --buggy --model strict";
  (* and the lock-free set's dropped pre-CAS flush: explore runs every
     family under the --model point's engine mode *)
  checke "explore lockfree buggy missed" 1
    "explore --workload lockfree --model strict --buggy --depth 2";
  (* unknown litmus test is a usage error *)
  checke "litmus unknown" 2 "litmus --test no-such-test";
  (* bad input never escapes as an uncaught exception (cmdliner's 125):
     a bad flag value is a usage error... *)
  List.iter
    (fun cmd -> checke cmd 124 cmd)
    [ "explore --replay 1,x"; "lockfree --recovery --replay 1,x";
      "recovery --threads 0"; "kv --recovery --threads 0";
      "cache --threads 0"; "explore --depth 0"; "graph --inserts 0";
      "lockfree --inserts 0"; "serve --batch 0"; "serve --shards 1,0";
      "explore --max-schedules 0"; "recovery --samples 0";
      "serve --requests 0"; "kv --ops=-4"; "ablation --which nope";
      (* an empty size list would sweep nothing *)
      "serve --recovery --shards ''"; "serve --recovery --batch=";
      "serve --shards= --requests 64";
      "analyze --track-gran 3"; "analyze --persist-gran 4";
      (* a percentage outside 0..100, a rate or latency that is not a
         finite positive number, a negative capacity or job count *)
      "serve --mix 150"; "serve --mix=-1"; "serve --rate=0";
      "serve --rate=-3"; "serve --recovery --rate=0";
      "analyze --latency=-1"; "analyze --latency=nan"; "table1 --latency=0";
      "table1 --capacity=-4"; "table1 --jobs=-3";
      (* --jobs sizes sweeps; an exploration has no such flag *)
      "explore --jobs 2";

      (* --buggy is the one selector of a deliberately broken variant *)
      "serve --recovery --model epoch-buggy";
      "lockfree --recovery --discipline buggy-traverse" ];
  (* ...and failure injection runs no sweep, so a flag that only shapes
     one is refused, by name, rather than ignored *)
  List.iter
    (fun (flag, cmd) ->
      match exit_and_output (persistsim ^ " " ^ cmd) with
      | 124, line :: _
        when String.starts_with ~prefix:("persistsim: " ^ flag ^ " ") line ->
        ()
      | code, lines ->
        Alcotest.failf "%s: exit %d, output %S" cmd code
          (String.concat "\n" lines))
    [ ("--jobs", "lockfree --recovery --depth 1 --model sc --jobs 2");
      ("--inserts", "lockfree --recovery --depth 1 --model sc --inserts 7");
      ( "--sweep-seed",
        "lockfree --recovery --depth 1 --model sc --sweep-seed 3" );
      ("--csv", "lockfree --recovery --depth 1 --model sc --csv");
      ("--csv", "lockfree --buggy --depth 1 --model sc --csv");
      ("--csv", "kv --recovery --samples 50 --csv");
      ("--jobs", "kv --recovery --samples 50 --jobs 2");
      ("--dist", "kv --recovery --samples 50 --dist zipf:0.9");
      ("--jobs", "kv --buggy -j 2");
      ("--csv", "serve --recovery --csv"); ("--jobs", "serve --buggy --jobs 2")
    ];
  (* ...and a total that does not split evenly over --threads, or over
     a sweep's thread counts, is bad input naming both flags *)
  List.iter
    (fun cmd -> checke cmd 2 cmd)
    [ "analyze --threads 3 --inserts 100"; "kv --recovery --ops 33";
      "validate --threads 3 --inserts 100"; "table1 --inserts 7";
      "consistency --inserts 7"; "machine --inserts 7"; "kv --inserts 7";
      "ablation --inserts 7" ];
  (* a command without --threads names the sweep's thread counts *)
  (match exit_and_output (persistsim ^ " table1 --inserts 9") with
  | 2, [ line ] ->
    Alcotest.(check string) "table1 --inserts 9"
      "persistsim: --inserts 9 is not a multiple of 8, a thread count of \
       the sweep (1, 8)"
      line
  | code, lines ->
    Alcotest.failf "table1 --inserts 9: exit %d, output %S" code
      (String.concat "\n" lines));
  (* an output file that cannot be written is bad input too: one line
     naming the flag, before the run rather than from an exit handler
     after it (whose uncaught exception would also exit 2) *)
  List.iter
    (fun flag ->
      let cmd = Printf.sprintf "graph %s /nonexistent/out" flag in
      match exit_and_output (persistsim ^ " " ^ cmd) with
      | 2, [ line ]
        when String.starts_with ~prefix:("persistsim: " ^ flag ^ ": ") line ->
        ()
      | code, lines ->
        Alcotest.failf "%s: exit %d, output %S" cmd code
          (String.concat "\n" lines))
    [ "--out"; "--metrics-out"; "--trace-out"; "--manifest-out" ]

(* Single-run failure injection reports the distinct crash states it
   checked and how they were walked, not the --samples budget: cwl
   2 x 16 under strict persistency draws 500 cuts but only 300 are
   distinct, and a graph within the exhaustive limit is enumerated.
   Serve's shards and a replayed schedule print the same line; a
   replayed KV graph is too large to enumerate, so its cuts are
   sampled and the line says so. *)
let test_single_run_coverage () =
  let expect cmd line =
    Alcotest.(check bool)
      (Printf.sprintf "%s prints %S" cmd line)
      true
      (List.mem line (run_lines (persistsim ^ " " ^ cmd)))
  in
  let dlin n how =
    Printf.sprintf
      "recovery and durable linearizability hold in all %d distinct crash \
       states (%s)"
      n how
  in
  expect "recovery --model strict" (dlin 300 "sampled: 500 draws");
  expect "recovery --threads 1 --inserts 1" (dlin 16385 "exhaustive");
  expect "kv --recovery --samples 100" (dlin 100 "sampled: 100 draws");
  expect "kv --recovery --threads 1 --ops 1" (dlin 24 "exhaustive");
  expect
    "serve --recovery --shards 2 --batch 3 --requests 24 --keys 16 --rate 1000"
    "recovery to a group-commit batch boundary holds in all 2434 distinct \
     crash states (sampled: 2000 draws on 2 of 2 graphs)";
  expect "explore --workload kv --depth 2 --replay 0"
    (dlin 58 "sampled: 64 draws");
  expect "lockfree --recovery --model sc --replay 0" (dlin 48 "exhaustive")

(* An exploration's summary says how the search ended — complete, cut
   by --max-schedules, or stopped at the first violation — and its
   clean line claims every interleaving only when DPOR exhausted the
   schedule space; a run cut by --max-schedules names the schedules it
   ran and the bound that stopped it, and its CSV verdict is
   "bounded", not "safe".  Both explorers share the wording.  (The
   budget counts sleep-set-aborted runs too, so 8 runs leave 4
   schedules.) *)
let test_budget_hit_wording () =
  let lines cmd = run_lines (persistsim ^ " " ^ cmd) in
  let has cmd out line =
    Alcotest.(check bool) (Printf.sprintf "%s prints %S" cmd line) true
      (List.mem line out)
  in
  let expect ?(bounded = false) cmd expected =
    let out = lines cmd in
    List.iter (has cmd out) expected;
    if bounded then
      Alcotest.(check bool)
        (cmd ^ " claims no interleaving it did not run")
        false
        (List.exists (String.ends_with ~suffix:"of every interleaving") out)
  in
  expect "lockfree --recovery --discipline nvtraverse --depth 1 --model sc"
    [ "  schedules executed    185 (complete)";
      "recovery and durable linearizability hold in all 962 distinct crash \
       states (exhaustive) of every interleaving" ];
  (* explore's lock-free set is the same search; its --model point sets
     the engine mode, and strict persistency orders every persist *)
  expect "explore --workload lockfree --depth 1"
    [ "explore lockfree / nvtraverse / epoch / sc: 2 threads x 1 ops";
      "  schedules executed    185 (complete)";
      "recovery and durable linearizability hold in all 962 distinct crash \
       states (exhaustive) of every interleaving" ];
  expect "explore --workload lockfree --depth 1 --model strict"
    [ "explore lockfree / nvtraverse / strict / sc: 2 threads x 1 ops";
      "recovery and durable linearizability hold in all 44 distinct crash \
       states (exhaustive) of every interleaving" ];
  expect ~bounded:true
    "lockfree --recovery --discipline nvtraverse --depth 2 --model sc \
     --max-schedules 16"
    [ "  schedules executed    16 (--max-schedules 16 hit)";
      "recovery and durable linearizability hold in all 125 distinct crash \
       states (exhaustive) of the 16 schedules run before --max-schedules 16 \
       stopped the search" ];
  expect ~bounded:true "explore --workload kv --depth 2 --max-schedules 8"
    [ "  schedules executed    4 (--max-schedules 8 hit)";
      "recovery and durable linearizability hold in all 113 distinct crash \
       states (sampled: 64 draws on 2 of 2 graphs) of the 4 schedules run \
       before --max-schedules 8 stopped the search" ];
  expect "explore --workload kv --depth 2 --max-schedules 8 --csv"
    [ "kv,epoch-undo,epoch,sc,2,2,4,1,4,326,false,2,2,113,bounded,," ];
  List.iter
    (fun cmd ->
      let out = lines cmd in
      has cmd out "  schedules executed    1 (stopped at the first violation)";
      Alcotest.(check bool) (cmd ^ " prints no clean line") false
        (List.exists (String.starts_with ~prefix:"recovery and") out))
    [ "explore --workload kv --buggy --depth 2";
      "lockfree --buggy --depth 2 --model sc" ]

(* An explicit --inserts reaches every ablation section, including the
   two that keep a default of their own. *)
let test_ablation_inserts () =
  List.iter
    (fun which ->
      let table n =
        run_lines
          (Printf.sprintf "%s ablation --which %s --inserts %d 2>/dev/null"
             persistsim which n)
      in
      Alcotest.(check bool)
        (which ^ ": --inserts 400 and 4000 print different tables")
        false
        (table 400 = table 4000))
    [ "buffer"; "sync" ]

(* A --replay schedule that does not fit the run is bad input: one
   line naming the decision and how many were consumed, exit 2 — not
   an uncaught exception (an index out of range) and not a clean
   verdict on a silently truncated schedule (decisions left over). *)
let test_replay_misfit () =
  let zeros = String.concat "," (List.init 500 (fun _ -> "0")) in
  List.iter
    (fun (cmd, message) ->
      match exit_and_output (persistsim ^ " " ^ cmd) with
      | 2, lines when List.mem ("persistsim: --replay: " ^ message) lines -> ()
      | code, lines ->
        Alcotest.failf "%s: exit %d, output %S" cmd code
          (String.concat "\n" lines))
    [ ("explore --replay 99 --depth 1",
       "decision 1 of 1 is index 99, but only 2 steps were runnable there \
        (0 decisions consumed)");
      ("lockfree --recovery --replay 9 --depth 1 --model sc",
       "decision 1 of 1 is index 9, but only 2 steps were runnable there \
        (0 decisions consumed)");
      ("explore --workload lockfree --depth 1 --replay 9",
       "decision 1 of 1 is index 9, but only 2 steps were runnable there \
        (0 decisions consumed)");
      ("explore --workload kv --depth 1 --replay " ^ zeros,
       "the run ended after consuming 30 of the schedule's 500 decisions") ]

(* The line a caught violation prints after "reproduce with:" must
   replay that violation verbatim. *)
let test_reproducer_roundtrip () =
  let prefix = "persistsim " in
  List.iter
    (fun cmd ->
      let rec after_marker = function
        | "reproduce with:" :: line :: _ -> String.trim line
        | _ :: rest -> after_marker rest
        | [] -> Alcotest.failf "%s printed no reproducer" cmd
      in
      let line = after_marker (run_lines (persistsim ^ " " ^ cmd)) in
      Alcotest.(check bool)
        (cmd ^ ": reproducer names the tool") true
        (String.starts_with ~prefix line);
      let args =
        String.sub line (String.length prefix)
          (String.length line - String.length prefix)
      in
      let replayed = run_lines (persistsim ^ " " ^ args) in
      Alcotest.(check bool)
        (cmd ^ ": replay shows the violation") true
        (List.exists
           (String.starts_with ~prefix:"RECOVERY VIOLATION on replayed schedule")
           replayed))
    [ "explore --workload kv --buggy --depth 2";
      "explore --workload lockfree --buggy --depth 2";
      "lockfree --buggy --depth 1 --model sc" ]

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "round-trip and rejection" `Quick
            test_json_roundtrip ] );
      ( "metrics",
        [ Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "histogram bucketing" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "pow2 buckets" `Quick test_pow2_buckets;
          Alcotest.test_case "kv and recovery instruments" `Quick
            test_kv_and_recovery_metrics;
          Alcotest.test_case "dump matches engine accessors" `Quick
            test_metrics_dump_matches_engine;
          Alcotest.test_case "tso machine instruments" `Quick
            test_machine_tso_metrics ] );
      ( "tracer",
        [ Alcotest.test_case "balanced well-formed events" `Quick
            test_trace_json_balanced;
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "engine runs equal with and without" `Quick
            test_tracer_branch_equivalence ] );
      ( "graph export",
        [ Alcotest.test_case "critical chain length" `Quick
            test_critical_chain_length;
          Alcotest.test_case "dot" `Quick test_dot_export;
          Alcotest.test_case "jsonl" `Quick test_jsonl_export;
          Alcotest.test_case "explain walk" `Quick test_explain_walk ] );
      ( "pool",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "render_profile n/a and p95" `Quick
            test_render_profile_na ] );
      ( "perfscope",
        [ Alcotest.test_case "measure reports a gc delta" `Quick
            test_measure_gc_delta;
          Alcotest.test_case "disabled span touches nothing" `Quick
            test_span_disabled_touches_nothing;
          Alcotest.test_case "enabled span accounts gc" `Quick
            test_span_accounts_gc;
          Alcotest.test_case "rate and peak rss" `Quick test_rate_and_rss;
          Alcotest.test_case "render_progress" `Quick test_render_progress;
          Alcotest.test_case "progress scope" `Quick test_progress_scope ] );
      ( "histogram percentiles",
        [ Alcotest.test_case "p95/p99 via raw samples" `Quick
            test_histogram_percentiles ] );
      ( "runinfo",
        [ Alcotest.test_case "manifest round-trip" `Quick
            test_manifest_roundtrip ] );
      ( "cli",
        [ Alcotest.test_case "subcommands expose obs flags" `Quick
            test_subcommands_expose_obs_flags;
          Alcotest.test_case "violation exit codes" `Quick test_exit_codes;
          Alcotest.test_case "single-run coverage" `Quick
            test_single_run_coverage;
          Alcotest.test_case "budget-hit wording" `Quick
            test_budget_hit_wording;
          Alcotest.test_case "replay misfit exits 2" `Quick
            test_replay_misfit;
          Alcotest.test_case "reproducer round-trip" `Quick
            test_reproducer_roundtrip;
          Alcotest.test_case "ablation --inserts" `Quick
            test_ablation_inserts ] ) ]
