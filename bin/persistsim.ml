(* persistsim: reproduce the evaluation of "Memory Persistency"
   (Pelley, Chen, Wenisch — ISCA 2014) from the command line.

   Exit codes: 0 for a clean run or a caught --buggy demonstration; 1
   for a violation or a missed bug; 2 for bad input that only shows in
   a combination of flags (or an unwritable output file or an unknown
   test name); 124 for a usage error, which every converter below reports
   through cmdliner. *)

open Cmdliner

(* Shared options *)

(* An output file that cannot be written is bad input: say so before
   the run starts, not when the file is written at its end.  Opening
   for append creates a missing file and leaves an existing one
   intact. *)
let check_writable ~flag path =
  match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
  | oc -> close_out oc
  | exception Sys_error msg ->
    Printf.eprintf "persistsim: %s: %s\n" flag msg;
    exit 2

(* Observability: every subcommand accepts --metrics-out/--trace-out
   (or METRICS_OUT/TRACE_OUT in the environment).  The files are
   written at exit so a crashing run still dumps what it gathered.
   Evaluating the term activates the registry/tracer as a side effect
   before the subcommand body runs; the extra [()] argument threads
   that ordering through cmdliner. *)
let obs_t =
  let file_t name env doc =
    Arg.(value
         & opt (some string) None
         & info [ name ] ~docv:"FILE" ~env:(Cmd.Env.info env) ~doc)
  in
  let metrics_t =
    file_t "metrics-out" "METRICS_OUT"
      "Write the metrics registry (counters, gauges, histograms from the \
       engine, pool, drain, cachesim and workloads) as JSON to $(docv) at \
       exit."
  in
  let trace_t =
    file_t "trace-out" "TRACE_OUT"
      "Write a Chrome trace-event JSON timeline (sweep cells, experiment \
       phases) to $(docv) at exit; load it in Perfetto or \
       chrome://tracing."
  in
  let manifest_t =
    file_t "manifest-out" "MANIFEST_OUT"
      "Write a self-describing run manifest (tool, argv, git describe, \
       OCaml version, cores) as JSON to $(docv) at exit."
  in
  let progress_t =
    let doc =
      "Heartbeat long-running work (sweeps, DPOR exploration) on standard \
       error: an interval-throttled line with completed/total cells, rate \
       and ETA."
    in
    let env = Cmd.Env.info "PROGRESS" in
    Arg.(value & flag & info [ "progress" ] ~env ~doc)
  in
  let setup metrics_out trace_out manifest_out progress =
    List.iter
      (fun (flag, path) -> Option.iter (check_writable ~flag) path)
      [ ("--metrics-out", metrics_out); ("--trace-out", trace_out);
        ("--manifest-out", manifest_out) ];
    Obs.Setup.activate ?metrics_out ?trace_out ?manifest_out ~progress ()
  in
  Term.(const setup $ metrics_t $ trace_t $ manifest_t $ progress_t)

(* Table/chart rendering as its own trace phase (a no-op when tracing
   is off). *)
let rendering f = Obs.Tracer.with_span ~cat:"phase" "rendering" f

(* The sweep-profile footer goes to stderr so that table output on
   stdout stays byte-identical across --jobs values. *)
let print_profile p = prerr_string (Parallel.Pool.render_profile p)

(* A sweep's output: its table, or its CSV when [csv] is [(true, _)],
   then the profile footer. *)
let emit_sweep ?csv render profile t =
  rendering (fun () ->
      print_string
        (match csv with Some (true, to_csv) -> to_csv t | _ -> render t));
  print_profile profile

(* Every count flag: zero or a negative value would only surface later
   as an exception deep inside a workload, so reject it here. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Every rate and latency: zero, a negative value, nan or infinity
   would surface as an exception inside a workload or as a nonsense
   figure, so reject it here. *)
let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0. -> Ok x
    | _ ->
      Error
        (`Msg (Printf.sprintf "expected a finite positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let count_t names default doc =
  Arg.(value & opt pos_int default & info names ~docv:"N" ~doc)

(* A total split evenly over --threads, or over each thread count of a
   sweep that has no such flag: a remainder is bad input that no single
   flag's converter can see. *)
let check_divides ~flag ?sweep total threads =
  if total mod threads <> 0 then begin
    Printf.eprintf "persistsim: %s %d is not a multiple of %s\n" flag total
      (match sweep with
      | None -> Printf.sprintf "--threads %d" threads
      | Some all ->
        Printf.sprintf "%d, a thread count of the sweep (%s)" threads
          (String.concat ", " (List.map string_of_int all)));
    exit 2
  end

let check_divides_sweep ~flag total sweep =
  List.iter (check_divides ~flag ~sweep total) sweep

let inserts_t ?(doc = "Total inserts per configuration.") default =
  count_t [ "inserts" ] default doc

let total_inserts_t = inserts_t Experiments.Run.default_total_inserts

let threads_t default = count_t [ "threads" ] default "Worker thread count."

let samples_t = count_t [ "samples" ]

let capacity_t =
  let doc = "Data segment capacity in entries." in
  Arg.(value & opt pos_int Experiments.Run.default_capacity
       & info [ "capacity" ] ~docv:"N" ~doc)

let csv_t =
  let doc = "Emit CSV instead of a formatted table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

(* [None] when --jobs is absent, for the subcommands whose
   failure-injection mode has no sweep to size and rejects the flag. *)
let jobs_opt_t =
  let doc =
    "Worker domains for the configuration sweep (default: cores - 1). \
     Table output is byte-identical for any value; only wall clock \
     changes."
  in
  Arg.(value & opt (some pos_int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let default_jobs = Option.value ~default:(Parallel.Pool.default_domains ())
let jobs_t = Term.(const default_jobs $ jobs_opt_t)

(* Under --recovery (and --buggy or --replay) a subcommand runs failure
   injection instead of its sweep, so a flag that only shapes the sweep
   would be ignored: giving one is a usage error that names it.  [given]
   pairs each such flag with whether the command line has it. *)
let without_sweep_flags given inject =
  match List.find_opt snd given with
  | Some (flag, _) ->
    `Error
      (true, flag ^ " shapes the sweep, which failure injection does not run")
  | None -> `Ok (inject ())

let latency_t =
  Arg.(value & opt pos_float 500. & info [ "latency" ] ~docv:"NS"
         ~doc:"Persist latency in nanoseconds.")

let buggy_t doc = Arg.(value & flag & info [ "buggy" ] ~doc)
let recovery_t doc = Arg.(value & flag & info [ "recovery" ] ~doc)

let design_t =
  let conv_design =
    Arg.enum
      [ ("cwl", Workloads.Queue.Cwl); ("2lc", Workloads.Queue.Tlc);
        ("fang", Workloads.Queue.Fang) ]
  in
  let doc = "Queue design: $(b,cwl), $(b,2lc) or $(b,fang)." in
  Arg.(value & opt conv_design Workloads.Queue.Cwl
       & info [ "design" ] ~docv:"DESIGN" ~doc)

let model_t =
  let conv_model =
    Arg.enum
      (List.map
         (fun (p : Experiments.Run.model_point) -> (p.label, p))
         Experiments.Run.table1_models)
  in
  let doc = "Model point: strict, epoch, racing-epochs or strand." in
  Arg.(value & opt conv_model Experiments.Run.epoch_point
       & info [ "model" ] ~docv:"MODEL" ~doc)

let dist_conv =
  let parse s =
    match Workloads.Keygen.dist_of_string s with
    | Ok d -> Ok d
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun ppf d -> Format.pp_print_string ppf (Workloads.Keygen.dist_name d) )

(* The machine configurations (the sync and buffered Px86 semantics),
   each under its canonical label; [tso] aliases tso-sync.  The explore
   --machine, lockfree --model and litmus --model converters all derive
   from {!Memsim.Machine.all_configs}; [extra] appends group names. *)
let machine_conv ?(extra = []) f =
  Arg.enum
    (List.concat_map
       (fun (mc : Memsim.Machine.mconfig) ->
         let aliases = if mc.mlabel = "tso-sync" then [ "tso" ] else [] in
         List.map (fun name -> (name, f mc)) (aliases @ [ mc.mlabel ]))
       Memsim.Machine.all_configs
     @ extra)

(* Failure-injection verdicts: a violation is expected if and only if
   --buggy asked for one.  [ok] prints the clean outcome; a violation
   prints one line ([at] says where) and the reproducer line when the
   failing schedule is known.  An unexpected violation or a bug that
   was not caught exits 1; a caught demonstration returns like a
   clean run. *)
let verdict ~buggy ~ok ?(at = "") ?repro = function
  | Ok r ->
    ok r;
    if buggy then begin
      print_endline
        "ERROR: the --buggy run survived failure injection (bug not caught)";
      exit 1
    end
  | Error f ->
    Printf.printf "RECOVERY VIOLATION%s: %s\n" at (Recovery.render_failure f);
    Option.iter (Printf.printf "reproduce with:\n  %s\n") repro;
    if not buggy then exit 1

(* How a check walks its crash states: [Recovery.auto]'s strategy per
   graph, counting the graphs it samples, and the coverage its verdict
   line quotes once [graphs] graphs were checked. *)
let auto_cuts ~samples ~seed =
  let sampled = ref 0 in
  let strategy g =
    let s = Recovery.auto ~samples ~seed g in
    (match s with Recovery.Sampled _ -> incr sampled | Exhaustive -> ());
    s
  in
  let coverage graphs =
    match !sampled with
    | 0 -> "exhaustive"
    | _ when graphs = 1 -> Printf.sprintf "sampled: %d draws" samples
    | m -> Printf.sprintf "sampled: %d draws on %d of %d graphs" samples m graphs
  in
  (strategy, coverage)

(* The one clean line of every check: what holds, in how many distinct
   crash states, how they were walked and, for an exploration, over
   which schedules. *)
let holds ?(what = "recovery and durable linearizability hold") ?(scope = "")
    coverage prefixes =
  Printf.printf "%s in all %d distinct crash states (%s)%s\n" what prefixes
    coverage scope

(* Single-run failure injection, shared by recovery, kv --recovery and
   serve --recovery: each instance (one per serve shard) goes through
   the driver's single-run entry, stopping at the first unrecoverable
   crash state, and the run ends in one verdict.  A violation names
   the failing instance as [part] (serve's "shard") and its index. *)
let check_runs ?what ?part ~buggy ~samples ~seed instances =
  let strategy, coverage = auto_cuts ~samples ~seed in
  let rec go i prefixes = function
    | [] -> Ok prefixes
    | inst :: rest -> (
      match Check.Driver.check_run ~strategy inst with
      | Ok (r : Recovery.report) -> go (i + 1) (prefixes + r.prefixes) rest
      | Error f -> Error (i, f))
  in
  let result = go 0 0 instances in
  verdict ~buggy
    ?at:
      (match (result, part) with
      | Error (i, _), Some part -> Some (Printf.sprintf " (%s %d)" part i)
      | _ -> None)
    ~ok:(holds ?what (coverage (List.length instances)))
    (Result.map_error snd result)

(* Single-run failure injection of one family run, shared by recovery
   and kv --recovery: run it once under its workload's own [policy],
   print [header] with the run's atomic persist count, and check it. *)
let check_family_run (f : (_, _, _, _) Check.Driver.family) params mode
    ~policy ~seed ~buggy ~samples header =
  let inst =
    Check.Driver.instance f params (Persistency.Config.make mode) policy
  in
  Printf.printf "%s, %d atomic persists\n" header
    (Persistency.Persist_graph.node_count inst.graph);
  check_runs ~buggy ~samples ~seed [ inst ]

(* DPOR failure injection, shared by explore and lockfree --recovery:
   explore every interleaving (or replay one), failure-injecting every
   distinct persist graph. *)

type dpor = {
  buggy : bool;
  threads : int;
  depth : int;
  max_schedules : int;
  samples : int;
  seed : int;
  replay : Check.Schedule.t option;
}

let dpor_t ~buggy_doc =
  let make buggy threads depth max_schedules samples seed replay =
    { buggy; threads; depth; max_schedules; samples; seed; replay }
  in
  let schedule_conv =
    let parse s =
      match Check.Schedule.of_string s with
      | sched -> Ok sched
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    Arg.conv
      ( parse,
        fun ppf s -> Format.pp_print_string ppf (Check.Schedule.to_string s) )
  in
  let seed_t =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"Workload and crash-state sampling seed; stamped into \
                   reproducer lines.")
  in
  let replay_t =
    Arg.(value & opt (some schedule_conv) None
         & info [ "replay" ] ~docv:"SCHEDULE"
             ~doc:"Re-execute one schedule (comma-separated decision \
                   indices, as printed in a reproducer line) instead of \
                   exploring, and failure-inject just that run.")
  in
  Term.(const make $ buggy_t buggy_doc $ threads_t 2
        $ count_t [ "depth" ] 2 "Operations per thread."
        $ count_t [ "max-schedules" ] 100_000
            "Budget of runs started, redundant runs aborted by sleep sets \
             included; exhausting it reports an incomplete exploration."
        $ samples_t 64
            "Crash states sampled per distinct persist graph too large to \
             enumerate (smaller graphs are checked exhaustively)."
        $ seed_t $ replay_t)

(* The summary every exploration prints under its [header]: how the
   search ended, what it pruned and what it checked. *)
let exploration_summary o header (r : Check.Driver.report) =
  Printf.printf
    "%s\n\
    \  schedules executed    %d (%s)\n\
    \  redundant runs pruned %d aborted, %d skipped before starting\n\
    \  scheduling decisions  %d\n\
    \  distinct persist graphs %d (each recovery-checked, %d durable \
     prefixes)\n"
    header r.stats.schedules
    (if r.stats.complete then "complete"
     else if r.failure <> None then "stopped at the first violation"
     else Printf.sprintf "--max-schedules %d hit" o.max_schedules)
    r.stats.sleep_aborts r.stats.sleep_skips r.stats.steps r.distinct
    r.prefixes

(* [command] is the subcommand and the flags that pick the
   configuration; the reproducer line re-runs exactly one failing
   schedule with the same sampling seed — paste it verbatim to replay
   a CI counter-example locally.  [header] names the run, [summary]
   prints an exploration's report (default: {!exploration_summary}) and
   [quiet] leaves the clean line to it. *)
let dpor_check ?summary ?(quiet = false) o ~command ~header instance_of =
  let strategy, coverage = auto_cuts ~samples:o.samples ~seed:o.seed in
  match o.replay with
  | Some sched ->
    Printf.printf "%s, replaying a %d-decision schedule\n" header
      (Check.Schedule.length sched);
    let result =
      try Check.Driver.check_schedule ~strategy sched instance_of
      with Check.Driver.Bad_schedule msg ->
        Printf.eprintf "persistsim: --replay: %s\n" msg;
        exit 2
    in
    verdict ~buggy:o.buggy ~at:" on replayed schedule" ~ok:(holds (coverage 1))
      (Result.map (fun (r : Recovery.report) -> r.prefixes) result)
  | None ->
    let r =
      Check.Driver.check ~max_schedules:o.max_schedules ~strategy instance_of
    in
    (Option.value summary ~default:(exploration_summary o header)) r;
    let scope =
      if r.stats.complete then " of every interleaving"
      else
        Printf.sprintf
          " of the %d schedules run before --max-schedules %d stopped the \
           search"
          r.stats.schedules o.max_schedules
    in
    let reproducer sched =
      Printf.sprintf
        "persistsim %s --threads %d --depth %d --samples %d --seed %d \
         --replay %s"
        command o.threads o.depth o.samples o.seed
        (Check.Schedule.to_string sched)
    in
    verdict ~buggy:o.buggy
      ~ok:(if quiet then ignore else holds ~scope (coverage r.checked))
      ?repro:(Option.map (fun (sched, _) -> reproducer sched) r.failure)
      (match r.failure with None -> Ok r.prefixes | Some (_, f) -> Error f)

(* The run both explorers check: one family's explore-sized params in
   one variant, under one engine mode and machine configuration. *)
let family_run o (f : (_, _, _, _) Check.Driver.family) variant mode machine =
  Check.Driver.instance f
    (f.params ~threads:o.threads ~depth:o.depth ~seed:o.seed machine variant)
    (Persistency.Config.make mode)

(* table1 *)

let table1_cmd =
  let run () inserts capacity latency csv calibrate jobs =
    check_divides_sweep ~flag:"--inserts" inserts
      Experiments.Table1.sweep_threads;
    let insn_ns =
      if calibrate then (fun design threads ->
        Calibrate.measure_native_ns ~design ~threads ())
      else (fun design threads -> Calibrate.default_insn_ns ~design ~threads)
    in
    let t =
      Experiments.Table1.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity ~latency_ns:latency ~insn_ns ()
    in
    emit_sweep ~csv:(csv, Experiments.Table1.to_csv) Experiments.Table1.render
      t.Experiments.Table1.profile t
  in
  let calibrate_t =
    Arg.(value & flag & info [ "calibrate" ]
           ~doc:"Measure this machine's native queue rate instead of using \
                 the paper-derived defaults.")
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (normalized insert rates).")
    Term.(const run $ obs_t $ total_inserts_t $ capacity_t $ latency_t $ csv_t
          $ calibrate_t $ jobs_t)

(* fig3 *)

let fig3_chart (t : Experiments.Fig3.t) =
  (* Glyphs cycle, so any number of series renders; the old List.map2
     raised Invalid_argument as soon as there were more than three. *)
  let glyphs = [| 's'; 'e'; '*'; '+'; 'o'; 'x' |] in
  let series =
    List.mapi
      (fun i (s : Experiments.Fig3.series) ->
        { Report.Chart.label = s.model;
          glyph = glyphs.(i mod Array.length glyphs);
          points = s.rates })
      t.series
  in
  Report.Chart.render
    ~axes:{ Report.Chart.log_x = true; log_y = true; width = 64; height = 16 }
    ~title:"Figure 3: inserts/s vs persist latency (ns), log-log" series

let fig3_cmd =
  let run () inserts capacity csv chart jobs =
    let t =
      Experiments.Fig3.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity ()
    in
    let with_chart f t = if chart then f t ^ fig3_chart t else f t in
    emit_sweep
      ~csv:(csv, with_chart Experiments.Fig3.to_csv)
      (with_chart Experiments.Fig3.render) t.Experiments.Fig3.profile t
  in
  let chart_t =
    Arg.(value & flag & info [ "chart" ]
           ~doc:"Also render an ASCII log-log chart of the series.")
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Reproduce Figure 3 (throughput vs persist latency).")
    Term.(const run $ obs_t $ total_inserts_t $ capacity_t $ csv_t $ chart_t
          $ jobs_t)

(* cache: model vs BPFS-style implementation *)

let cache_cmd =
  let run () inserts threads =
    check_divides ~flag:"--inserts" inserts threads;
    print_string
      (Experiments.Cache_impl.render
         (Experiments.Cache_impl.run ~total_inserts:inserts ~threads ()))
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Compare the persistency model against the BPFS-style epoch \
             cache hardware (writebacks, flushes, wear).")
    Term.(const run $ obs_t $ total_inserts_t $ threads_t 4)

(* consistency *)

let consistency_cmd =
  let run () inserts capacity jobs =
    check_divides_sweep ~flag:"--inserts" inserts
      Experiments.Consistency_exp.sweep_threads;
    let t =
      Experiments.Consistency_exp.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity ()
    in
    emit_sweep Experiments.Consistency_exp.render
      t.Experiments.Consistency_exp.profile t
  in
  Cmd.v
    (Cmd.info "consistency"
       ~doc:"Strict persistency under SC / TSO / RMO vs relaxed persistency \
             under SC (paper Section 5.1).")
    Term.(const run $ obs_t $ total_inserts_t $ capacity_t $ jobs_t)

(* wear *)

let wear_cmd =
  let run () inserts jobs =
    let t = Experiments.Wear_exp.run ~jobs ~total_inserts:inserts () in
    emit_sweep Experiments.Wear_exp.render t.Experiments.Wear_exp.profile t
  in
  Cmd.v
    (Cmd.info "wear"
       ~doc:"NVRAM write counts per model, with and without coalescing.")
    Term.(const run $ obs_t
          $ inserts_t 2000
              ~doc:"Total inserts (graph-recording run; keep moderate)."
          $ jobs_t)

(* fig4 / fig5 *)

let gran_cmd which name doc =
  let run () inserts capacity csv jobs =
    let t =
      Experiments.Granularity.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity which
    in
    emit_sweep
      ~csv:(csv, Experiments.Granularity.to_csv)
      Experiments.Granularity.render t.Experiments.Granularity.profile t
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ obs_t $ total_inserts_t $ capacity_t $ csv_t $ jobs_t)

let fig4_cmd =
  gran_cmd Experiments.Granularity.Atomic_persist "fig4"
    "Reproduce Figure 4 (atomic persist granularity)."

let fig5_cmd =
  gran_cmd Experiments.Granularity.Tracking "fig5"
    "Reproduce Figure 5 (tracking granularity / persistent false sharing)."

(* validate *)

let validate_cmd =
  let run () inserts threads jobs =
    check_divides ~flag:"--inserts" inserts threads;
    let t =
      Experiments.Validation.run ~jobs ~threads ~total_inserts:inserts ()
    in
    emit_sweep Experiments.Validation.render t.Experiments.Validation.profile t
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Insert-distance distribution stability across schedules \
             (Section 7 validation).")
    Term.(const run $ obs_t $ total_inserts_t $ threads_t 4 $ jobs_t)

(* recovery *)

let recovery_cmd =
  let run () design model threads inserts samples buggy =
    let annotation =
      if buggy then Check.Driver.queue.drop
      else model.Experiments.Run.annotation
    in
    let params =
      { (Experiments.Run.queue_params ~design ~threads
           ~total_inserts:(threads * inserts)
           ~capacity_entries:(threads * inserts) model)
        with Workloads.Queue.annotation }
    in
    check_family_run Check.Driver.queue params model.Experiments.Run.mode
      ~policy:params.Workloads.Queue.policy
      ~seed:params.Workloads.Queue.seed ~buggy ~samples
      (Printf.sprintf "%s / %s%s: %d threads x %d inserts"
         (Workloads.Queue.design_name design)
         model.Experiments.Run.label
         (if buggy then " (buggy: data->head barrier removed)" else "")
         threads inserts)
  in
  Cmd.v
    (Cmd.info "recovery"
       ~doc:"Failure injection: check queue recovery and durable \
             linearizability in legal crash states of one run.")
    Term.(const run $ obs_t $ design_t $ model_t $ threads_t 2
          $ inserts_t 16
              ~doc:"Inserts per thread (kept small: crash-state checking is \
                    exhaustive in spirit)."
          $ samples_t 500
              "Random crash states to draw (graphs of at most 20 persists \
               are checked exhaustively)."
          $ buggy_t
              "Use the deliberately broken annotation (no data->head \
               barrier) to demonstrate a detectable recovery bug.")

(* kv *)

let kv_cmd =
  let failure_inject total_ops (model : Experiments.Run.model_point) threads
      samples buggy =
    let total_ops = Option.value ~default:32 total_ops in
    check_divides ~flag:"--ops" total_ops threads;
    let params =
      Experiments.Kv_exp.kv_params ~threads ~total_ops model.mode
    in
    let params =
      if buggy then { params with Kv.discipline = Check.Driver.kv.drop }
      else params
    in
    check_family_run Check.Driver.kv params model.mode ~policy:params.Kv.policy
      ~seed:params.Kv.seed ~buggy ~samples
      (Printf.sprintf "kv / %s%s: %d threads x %d ops"
         (Kv.discipline_name params.Kv.discipline)
         (if buggy then " (buggy: seal->slot barrier removed)" else "")
         threads params.Kv.ops_per_thread)
  in
  let run () total_ops dist csv jobs recovery model threads samples buggy =
    if recovery || buggy then
      without_sweep_flags
        [ ("--csv", csv); ("--jobs", jobs <> None); ("--dist", dist <> None) ]
        (fun () -> failure_inject total_ops model threads samples buggy)
    else
      let total_ops =
        Option.value ~default:Experiments.Kv_exp.default_total_ops total_ops
      in
      check_divides_sweep ~flag:"--ops" total_ops
        Experiments.Kv_exp.sweep_threads;
      let dist = Option.value ~default:Workloads.Keygen.Uniform dist in
      let t =
        Experiments.Kv_exp.run ~jobs:(default_jobs jobs) ~total_ops ~dist ()
      in
      `Ok
        (emit_sweep
           ~csv:(csv, Experiments.Kv_exp.to_csv)
           Experiments.Kv_exp.render t.Experiments.Kv_exp.profile t)
  in
  let dist_t =
    Arg.(value
         & opt (some ~none:"uniform" dist_conv) None
         & info [ "dist" ] ~docv:"DIST"
             ~doc:"Key popularity for the sweep: $(b,uniform), \
                   $(b,zipf:THETA) or $(b,hotset:KEYS:PCT).")
  in
  let ops_t =
    Arg.(value & opt (some pos_int) None & info [ "inserts"; "ops" ] ~docv:"N"
           ~doc:"Total operations per configuration (default: 4096 for the \
                 sweep, 32 for --recovery).")
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:"KV store workload: sweep persist critical path per operation \
             over models x threads x load, or failure-inject one \
             configuration (--recovery).")
    Term.(ret (const run $ obs_t $ ops_t $ dist_t $ csv_t $ jobs_opt_t
          $ recovery_t
              "Failure injection instead of the sweep: check KV recovery and \
               durable linearizability in legal crash states of one \
               configuration."
          $ model_t $ threads_t 2
          $ samples_t 500
              "Random crash states to draw with --recovery (graphs of at \
               most 20 persists are checked exhaustively)."
          $ buggy_t
              "With --recovery: drop the seal->slot persist barrier to \
               demonstrate a detectable crash-consistency bug."))

(* serve *)

let serve_cmd =
  let model_conv =
    Arg.enum
      (List.map
         (fun (m : Serve.Sim.model) -> (m.Serve.Sim.label, m))
         Serve.Sim.models)
  in
  let failure_inject requests clients rate mix dist key_space shards batches
      samples (model : Serve.Sim.model) buggy =
    let requests = Option.value ~default:48 requests in
    let model = if buggy then Serve.Sim.buggy_model else model in
    let shards = List.hd shards and batch = List.hd batches in
    let p =
      Experiments.Serve_exp.serve_params ~requests ~clients ~rate
        ~read_pct:mix ~dist ~key_space ~shards ~batch model
    in
    Printf.printf "serve / %s: %d shards, batch %d, %d requests\n"
      model.Serve.Sim.label shards batch requests;
    let report = Serve.Sim.run { p with Serve.Sim.record_graph = true } in
    Printf.printf
      "served %d (%d shed), %d group commits, mean fill %.2f, cp/put %.3f\n"
      report.Serve.Sim.served report.Serve.Sim.shed report.Serve.Sim.batches
      report.Serve.Sim.mean_fill report.Serve.Sim.cp_per_put;
    check_runs ~what:"recovery to a group-commit batch boundary holds"
      ~part:"shard" ~buggy ~samples ~seed:p.Serve.Sim.load.Serve.Loadgen.seed
      (List.map
         (fun (r : Serve.Sim.shard_result) ->
           Check.Driver.group_instance ~layout:r.layout
             ~batches:r.put_batches (Option.get r.graph))
         report.Serve.Sim.shard_results)
  in
  let run () requests clients rate mix dist key_space shards batches csv jobs
      recovery samples model buggy =
    if recovery || buggy then
      without_sweep_flags
        [ ("--csv", csv); ("--jobs", jobs <> None) ]
        (fun () ->
          failure_inject requests clients rate mix dist key_space shards
            batches samples model buggy)
    else
      let t =
        Experiments.Serve_exp.run ~jobs:(default_jobs jobs)
          ~requests:(Option.value ~default:4096 requests)
          ~clients ~rate ~read_pct:mix ~dist ~key_space ~shards_list:shards
          ~batches ()
      in
      `Ok
        (emit_sweep
           ~csv:(csv, Experiments.Serve_exp.to_csv)
           Experiments.Serve_exp.render t.Experiments.Serve_exp.profile t)
  in
  let requests_t =
    Arg.(value & opt (some pos_int) None & info [ "requests" ] ~docv:"N"
           ~doc:"Requests in the open-loop stream (default: 4096 for the \
                 sweep, 48 for --recovery, where every shard's persist \
                 graph is recorded and failure-injected).")
  in
  let clients_t =
    Arg.(value & opt pos_int 2048 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent client sessions.")
  in
  let rate_t =
    Arg.(value & opt pos_float 96. & info [ "rate" ] ~docv:"R"
           ~doc:"Mean arrivals per persist-critical-path unit.")
  in
  let mix_t =
    let percent =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 0 && n <= 100 -> Ok n
        | _ ->
          Error
            (`Msg
              (Printf.sprintf "expected a percentage from 0 to 100, got %S" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(value & opt percent 25 & info [ "mix" ] ~docv:"PCT"
           ~doc:"Read percentage of the request mix.")
  in
  let zipf_t =
    Arg.(value
         & opt dist_conv (Workloads.Keygen.Zipf 0.99)
         & info [ "zipf"; "dist" ] ~docv:"DIST"
             ~doc:"Key popularity: $(b,uniform), $(b,zipf:THETA) or \
                   $(b,hotset:KEYS:PCT).")
  in
  let key_space_t =
    Arg.(value & opt pos_int 512 & info [ "keys" ] ~docv:"N"
           ~doc:"Key space size.")
  in
  (* An empty list would sweep nothing (or leave --recovery without a
     first size), so reject it here. *)
  let sizes =
    let parse s =
      match Arg.conv_parser (Arg.list pos_int) s with
      | Ok [] -> Error (`Msg "expected a non-empty comma-separated list")
      | r -> r
    in
    Arg.conv (parse, Arg.conv_printer (Arg.list pos_int))
  in
  let sizes_t name default doc =
    Arg.(value & opt sizes default & info [ name ] ~docv:"LIST" ~doc)
  in
  let smodel_t =
    Arg.(value & opt model_conv Serve.Sim.epoch_model
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Model for --recovery: strict, epoch or strand.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Served KV: open-loop load over sharded group-commit stores. \
             Sweep persist-barrier cost and latency percentiles over models \
             x shards x batch sizes, or failure-inject one configuration \
             (--recovery).")
    Term.(ret (const run $ obs_t $ requests_t $ clients_t $ rate_t $ mix_t
          $ zipf_t $ key_space_t
          $ sizes_t "shards" [ 1; 2; 4 ]
              "Shard counts to sweep (comma-separated); --recovery uses the \
               first."
          $ sizes_t "batch" [ 1; 8; 32 ]
              "Group-commit batch sizes to sweep (comma-separated); \
               --recovery uses the first."
          $ csv_t $ jobs_opt_t
          $ recovery_t
              "Failure injection instead of the sweep: record every shard's \
               persist graph and check that each legal crash state recovers \
               to a group-commit batch boundary."
          $ samples_t 2000
              "Crash states sampled per shard graph with --recovery (small \
               graphs are checked exhaustively)."
          $ smodel_t
          $ buggy_t
              "With --recovery: use the batcher that seals the commit marker \
               without the slots->marker barrier, to demonstrate a \
               detectable group-commit bug."))

(* trace *)

let trace_cmd =
  let run () design model threads inserts =
    let params =
      Experiments.Run.queue_params ~design ~threads
        ~total_inserts:(threads * inserts) model
    in
    let trace = Memsim.Trace.create () in
    let _ = Workloads.Queue.run params ~sink:(Memsim.Trace.sink trace) in
    Memsim.Trace.to_channel stdout trace
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump the SC memory event trace of a queue run.")
    Term.(const run $ obs_t $ design_t $ model_t $ threads_t 1
          $ inserts_t 4 ~doc:"Inserts per thread.")

(* analyze *)

let analyze_cmd =
  let run () design model threads inserts capacity track persist latency
      explain =
    check_divides ~flag:"--inserts" inserts threads;
    let params =
      Experiments.Run.queue_params ~design ~threads ~total_inserts:inserts
        ~capacity_entries:capacity model
    in
    let cfg =
      Persistency.Config.make ~track_gran:track ~persist_gran:persist
        model.Experiments.Run.mode
    in
    let m, graph =
      if explain then
        let m, g, _ = Experiments.Run.analyze_with_graph params cfg in
        (m, Some g)
      else (Experiments.Run.analyze params cfg, None)
    in
    let timing =
      { Nvram.Timing.ops = m.Experiments.Run.inserts;
        critical_path = m.Experiments.Run.critical_path;
        insn_ns_per_op = Calibrate.default_insn_ns ~design ~threads;
        persist_latency_ns = latency }
    in
    Printf.printf "workload:        %s, %d threads, %d inserts\n"
      (Workloads.Queue.design_name design) threads m.Experiments.Run.inserts;
    Printf.printf "model:           %s\n" model.Experiments.Run.label;
    Printf.printf "events:          %d\n" m.Experiments.Run.events;
    Printf.printf "persists:        %d (%d atomic after coalescing)\n"
      m.Experiments.Run.persist_events m.Experiments.Run.persist_ops;
    Printf.printf "critical path:   %d (%.4f per insert)\n"
      m.Experiments.Run.critical_path m.Experiments.Run.cp_per_insert;
    Printf.printf "persist-bound:   %s\n"
      (Report.Table.fmt_rate (Nvram.Timing.persist_bound_rate timing));
    Printf.printf "instruction:     %s\n"
      (Report.Table.fmt_rate (Nvram.Timing.instruction_rate timing));
    Printf.printf "achievable:      %s (normalized %.3f)\n"
      (Report.Table.fmt_rate (Nvram.Timing.achievable_rate timing))
      (Nvram.Timing.normalized timing);
    match graph with
    | None -> ()
    | Some g ->
      print_newline ();
      Persistency.Graph_export.explain Format.std_formatter g;
      Format.pp_print_flush Format.std_formatter ()
  in
  let explain_t =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Record the persist dependence graph and print the \
                   longest dependence chain as a persist-by-persist walk \
                   (its length is the reported critical path).")
  in
  let gran_t name what doc =
    let parse s =
      match int_of_string_opt s with
      | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
      | Some g -> (
        match Persistency.Config.check_gran what g with
        | () -> Ok g
        | exception Invalid_argument msg -> Error (`Msg msg))
    in
    Arg.(value & opt (conv (parse, Format.pp_print_int)) 8
         & info [ name ] ~docv:"BYTES" ~doc)
  in
  let track_t =
    gran_t "track-gran" "tracking" "Conflict tracking granularity."
  in
  let persist_t =
    gran_t "persist-gran" "persist" "Atomic persist granularity."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyze one configuration in detail.")
    Term.(const run $ obs_t $ design_t $ model_t $ threads_t 1 $ total_inserts_t
          $ capacity_t $ track_t $ persist_t $ latency_t $ explain_t)

(* graph *)

let graph_cmd =
  let run () design model threads inserts format out =
    Option.iter (check_writable ~flag:"--out") out;
    let params =
      Experiments.Run.queue_params ~design ~threads
        ~total_inserts:(threads * inserts)
        ~capacity_entries:(threads * inserts)
        model
    in
    let cfg = Persistency.Config.make model.Experiments.Run.mode in
    let _, graph, _ = Experiments.Run.analyze_with_graph params cfg in
    let emit ppf =
      (match format with
      | `Dot -> Persistency.Graph_export.to_dot ppf graph
      | `Jsonl -> Persistency.Graph_export.to_jsonl ppf graph);
      Format.pp_print_flush ppf ()
    in
    match out with
    | None -> emit Format.std_formatter
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          emit (Format.formatter_of_out_channel oc))
  in
  let format_t =
    let doc =
      "Output format: $(b,dot) (Graphviz, critical path highlighted) or \
       $(b,jsonl) (one node per line)."
    in
    Arg.(value
         & opt (Arg.enum [ ("dot", `Dot); ("jsonl", `Jsonl) ]) `Dot
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let out_t =
    Arg.(value
         & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write to $(docv) instead of standard output.")
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Export the persist dependence graph of a queue run, with the \
             critical-path nodes marked and per-level/per-thread \
             annotations.")
    Term.(const run $ obs_t $ design_t $ model_t $ threads_t 1
          $ inserts_t 4
              ~doc:"Inserts per thread (kept small so the graph stays \
                    viewable)."
          $ format_t $ out_t)

(* ablation *)

let ablation_cmd =
  let module A = Experiments.Ablation in
  (* one section per --which name, in print order; each keeps its own
     default size unless --inserts is given.  A1 and A2 read one sweep,
     and A3 and the sync ablation one set of graphs: each is computed
     once, when a section first needs it. *)
  let sections ~jobs ?total_inserts () =
    let on_profile = print_profile in
    let conflicts = lazy (A.conflicts ~jobs ~on_profile ?total_inserts ()) in
    let graphs = lazy (A.model_graphs ~jobs ~on_profile ?total_inserts ()) in
    [ ( "tso",
        fun () ->
          A.render_comparisons
            ~title:
              "Ablation A1: SC conflict ordering (baseline) vs BPFS/TSO \
               conflict detection (variant), cp/insert"
            (Lazy.force conflicts).A.tso );
      ( "spaces",
        fun () ->
          A.render_comparisons
            ~title:
              "\nAblation A2: conflicts in both spaces (baseline) vs \
               persistent-only (variant), cp/insert"
            (Lazy.force conflicts).A.spaces );
      ( "coalesce",
        fun () ->
          A.render_comparisons
            ~title:
              "\nAblation A4: coalescing on (baseline) vs off (variant), \
               cp/insert, CWL 1 thread"
            (A.coalescing ~jobs ~on_profile ?total_inserts ()) );
      ("buffer", fun () -> A.render_buffer (A.buffer_depth (Lazy.force graphs)));
      ("sync", fun () -> A.render_sync (A.persist_sync (Lazy.force graphs)));
      ( "capacity",
        fun () ->
          A.render_capacity (A.capacity ~jobs ~on_profile ?total_inserts ()) )
    ]
  in
  let run () which total_inserts jobs =
    (* A1 and A2 split --inserts over their threads *)
    if List.mem which [ "all"; "tso"; "spaces" ] then
      Option.iter
        (fun n ->
          check_divides_sweep ~flag:"--inserts" n [ A.comparison_threads ])
        total_inserts;
    List.iter
      (fun (name, section) ->
        if which = "all" || which = name then print_string (section ()))
      (sections ~jobs ?total_inserts ())
  in
  let which_t =
    let names =
      List.map (fun (n, _) -> (n, n)) (sections ~jobs:1 ()) @ [ ("all", "all") ]
    in
    Arg.(value & opt (enum names) "all"
         & info [ "which" ] ~docv:"NAME"
             ~doc:"One of: tso, spaces, coalesce, buffer, sync, capacity, all.")
  in
  let inserts_t =
    Arg.(value & opt (some pos_int) None & info [ "inserts" ] ~docv:"N"
           ~doc:"Total inserts per configuration (default: each section's \
                 own size).")
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run the DESIGN.md ablations (A1-A5).")
    Term.(const run $ obs_t $ which_t $ inserts_t $ jobs_t)

(* calibrate *)

let calibrate_cmd =
  let run () () =
    List.iter
      (fun design ->
        List.iter
          (fun threads ->
            let measured =
              Calibrate.measure_native_ns ~design ~threads ()
            in
            Printf.printf
              "%-20s %d threads: measured %7.1f ns/insert (default %6.1f)\n"
              (Workloads.Queue.design_name design)
              threads measured
              (Calibrate.default_insn_ns ~design ~threads))
          [ 1; 8 ])
      [ Workloads.Queue.Cwl; Workloads.Queue.Tlc ]
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Measure this machine's native volatile-queue insert rate.")
    Term.(const run $ obs_t $ const ())

(* explore *)

let explore_cmd =
  let run () (Check.Driver.Family f) (model : Experiments.Run.model_point)
      (machine : Memsim.Machine.mconfig) o oracle csv =
    let { buggy; threads; depth; max_schedules; _ } = o in
    let variant =
      if buggy then f.drop else f.clean model.mode model.annotation
    in
    let label = f.variant_name variant in
    let instance_of = family_run o f variant model.mode machine in
    let header =
      Printf.sprintf "explore %s / %s / %s / %s: %d threads x %d ops"
        f.name label model.label machine.mlabel threads depth
    in
    let summary (report : Check.Driver.report) =
      let brute =
        if not oracle then None
        else begin
          (* brute-force DFS as the oracle: every interleaving, same
             distinct-graph census *)
          let fps = Hashtbl.create 64 in
          let o =
            Memsim.Explore.run_all ~limit:max_schedules (fun policy ->
                let inst = instance_of policy in
                Hashtbl.replace fps
                  (Persistency.Graph_export.fingerprint
                     inst.Check.Driver.graph)
                  ())
          in
          Some (o, Hashtbl.length fps)
        end
      in
      if csv then begin
        print_string
          "workload,discipline,model,machine,threads,depth,schedules,\
           sleep_skips,sleep_aborts,steps,complete,distinct_graphs,\
           recovery_checks,prefixes,verdict,brute_traces,brute_graphs\n";
        Printf.printf "%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%b,%d,%d,%d,%s,%s,%s\n"
          f.name label model.label machine.mlabel threads depth
          report.stats.schedules
          report.stats.sleep_skips report.stats.sleep_aborts
          report.stats.steps report.stats.complete report.distinct
          report.checked report.prefixes
          (match report.failure with
          | Some _ -> "violated"
          | None -> if report.stats.complete then "safe" else "bounded")
          (match brute with
          | Some (o, _) -> string_of_int o.Memsim.Explore.traces
          | None -> "")
          (match brute with Some (_, g) -> string_of_int g | None -> "")
      end
      else begin
        exploration_summary o header report;
        match brute with
        | Some (b, g) ->
          Printf.printf
            "  brute-force oracle    %d traces%s, %d distinct graphs\n"
            b.Memsim.Explore.traces
            (if b.Memsim.Explore.complete then ""
             else Printf.sprintf " (--max-schedules %d hit)" max_schedules)
            g
        | None -> ()
      end
    in
    dpor_check o ~header ~summary ~quiet:csv
      ~command:
        (Printf.sprintf "explore --workload %s --model %s --machine %s%s"
           f.name model.label machine.mlabel
           (if buggy then " --buggy" else ""))
      instance_of
  in
  (* the enum maps names to names: cmdliner compares values to print
     them, and a family holds closures *)
  let families =
    List.map (fun (Check.Driver.Family f as w) -> (f.name, w))
      Check.Driver.families
  in
  let workload_t =
    let doc = "Workload family to explore: " ^ Arg.doc_alts_enum families in
    let names = Arg.enum (List.map (fun (n, _) -> (n, n)) families) in
    Term.(const (fun n -> List.assoc n families)
          $ Arg.(value & opt names "queue"
                 & info [ "workload" ] ~docv:"W" ~doc))
  in
  let buggy_doc =
    Printf.sprintf
      "Drop the family's recovery-critical barrier or flush so the \
       explorer can demonstrate the resulting violation: %s."
      (String.concat "; "
         (List.map
            (fun (n, Check.Driver.Family f) ->
              n ^ " runs " ^ f.variant_name f.drop)
            families))
  in
  let machine_t =
    Arg.(value
         & opt (machine_conv Fun.id) Memsim.Machine.sc_config
         & info [ "machine" ] ~docv:"MACHINE"
             ~doc:"Machine configuration to explore under: $(b,sc) \
                   (default), $(b,tso-sync) (alias $(b,tso)) or \
                   $(b,tso-buffered).  On TSO machines persist barriers \
                   are realized as the Px86 flush+sfence annotation.")
  in
  let oracle_t =
    Arg.(value & flag
         & info [ "oracle" ]
             ~doc:"Also run the brute-force interleaving enumeration \
                   (Memsim.Explore) and print its trace and distinct-graph \
                   counts next to DPOR's.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Systematically explore scheduler interleavings with dynamic \
             partial-order reduction, failure-injecting recovery on every \
             distinct persist graph.")
    Term.(const run $ obs_t $ workload_t $ model_t $ machine_t
          $ dpor_t ~buggy_doc $ oracle_t $ csv_t)

(* lockfree *)

let lockfree_cmd =
  let module E = Experiments.Lockfree_exp in
  let module C = Lockfree.Cas_set in
  let run () recovery o discipline inserts sweep_seed csv jobs mconfigs =
    if recovery || o.buggy || o.replay <> None then
      without_sweep_flags
        [ ("--jobs", jobs <> None); ("--inserts", inserts <> None);
          ("--sweep-seed", sweep_seed <> None); ("--csv", csv) ]
        (fun () ->
          let d = if o.buggy then Check.Driver.lockfree.drop else discipline in
          let dname = C.discipline_name d in
          (* a reproducer line always stamps a single machine
             configuration; replay the schedule under the first one *)
          List.iter
            (fun (mc : E.mconfig) ->
              dpor_check o
                ~header:
                  (Printf.sprintf "lockfree / %s / %s: %d threads x %d inserts"
                     dname mc.mlabel o.threads o.depth)
                ~command:
                  (Printf.sprintf "lockfree --recovery %s --model %s"
                     (if o.buggy then "--buggy" else "--discipline " ^ dname)
                     mc.mlabel)
                (family_run o Check.Driver.lockfree d Persistency.Config.Epoch
                   mc))
            (if o.replay = None then mconfigs else [ List.hd mconfigs ]))
    else
      let t =
        E.run ~jobs:(default_jobs jobs)
          ~inserts:(Option.value ~default:128 inserts)
          ~seed:(Option.value ~default:42 sweep_seed)
          ~mconfigs ()
      in
      `Ok (emit_sweep ~csv:(csv, E.to_csv) E.render t.E.profile t)
  in
  let mconfigs_t =
    let mconv =
      machine_conv ~extra:[ ("all", E.all_mconfigs) ]
        (fun mc -> [ mc ])
    in
    Arg.(value & opt mconv E.all_mconfigs
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Machine configuration: $(b,sc), $(b,tso-sync) (alias \
                   $(b,tso)), $(b,tso-buffered) or $(b,all) (default).  \
                   Selects the sweep's table rows, or the machines \
                   failure-injected under --recovery.")
  in
  let discipline_t =
    let doc = "Persistence discipline: $(b,flush-all) or $(b,nvtraverse)." in
    Arg.(value
         & opt
             (enum [ ("flush-all", C.Flush_all); ("nvtraverse", C.Nvtraverse) ])
             C.Nvtraverse
         & info [ "discipline" ] ~docv:"D" ~doc)
  in
  let sweep_seed_t =
    Arg.(value & opt (some ~none:"42" int) None
         & info [ "sweep-seed" ] ~docv:"N"
             ~doc:"Key-schedule seed for the sweep.")
  in
  let inserts_t =
    Arg.(value & opt (some ~none:"128" pos_int) None
         & info [ "inserts" ] ~docv:"N"
             ~doc:"Inserts per thread for the sweep.")
  in
  Cmd.v
    (Cmd.info "lockfree"
       ~doc:"Lock-free durable CAS-set: sweep the NVTraverse flush-elision \
             win (persist critical path per insert, flush-all vs \
             nvtraverse) over thread counts and the machine matrix (sc, \
             tso-sync, tso-buffered), or exhaustively failure-inject one \
             discipline (--recovery) under the durable-linearizability \
             oracle.")
    Term.(ret (const run $ obs_t
          $ recovery_t
              "Exhaustive failure injection instead of the sweep: DPOR over \
               interleavings, every distinct persist graph recovery-checked \
               and held to durable linearizability."
          $ dpor_t
              ~buggy_doc:
                "Failure-inject the buggy-traverse discipline (no pre-CAS \
                 destination flush) to demonstrate a detectable violation."
          $ discipline_t $ inserts_t $ sweep_seed_t $ csv_t $ jobs_opt_t
          $ mconfigs_t))

(* machine (SC vs TSO) *)

let machine_cmd =
  let run () inserts capacity jobs =
    check_divides_sweep ~flag:"--inserts" inserts
      Experiments.Machine_exp.sweep_threads;
    let t =
      Experiments.Machine_exp.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity ()
    in
    emit_sweep Experiments.Machine_exp.render t.Experiments.Machine_exp.profile
      t
  in
  Cmd.v
    (Cmd.info "machine"
       ~doc:"Run the epoch-annotated CWL queue on an SC vs an x86-TSO \
             machine (per-thread store buffers, persists at drain time) \
             and compare persist counts and critical path.")
    Term.(const run $ obs_t $ total_inserts_t $ capacity_t $ jobs_t)

(* litmus *)

let litmus_cmd =
  let run () configs dpor name verbose csv =
    let tests =
      match name with
      | None -> Litmus.suite
      | Some n -> (
        match Litmus.find n with
        | Some t -> [ t ]
        | None ->
          Printf.eprintf "unknown litmus test %S; known: %s\n" n
            (String.concat ", " (List.map (fun t -> t.Litmus.name) Litmus.suite));
          exit 2)
    in
    let how = if dpor then Litmus.Dpor else Litmus.Brute in
    let results =
      List.concat_map
        (fun t ->
          List.map (fun config -> Litmus.check ~verify:true ~how ~config t)
            configs)
        tests
    in
    (* one row per result: CSV, or the table with failure details *)
    let row fmt (r : Litmus.result) =
      Printf.printf fmt r.test.name r.config.mlabel
        (Litmus.method_name r.how) r.schedules (List.length r.observed)
        (if Litmus.pass r then "pass" else "FAIL")
    in
    rendering (fun () ->
        if csv then begin
          print_string "test,model,method,schedules,outcomes,status\n";
          List.iter (row "%s,%s,%s,%d,%d,%s\n") results
        end
        else begin
          Printf.printf "%-24s %-12s %-6s %10s %9s  %s\n" "test" "machine"
            "method" "schedules" "outcomes" "status";
          List.iter
            (fun (r : Litmus.result) ->
              row "%-24s %-12s %-6s %10d %9d  %s\n" r;
              if verbose || not (Litmus.pass r) then begin
                Printf.printf "    %s\n" r.Litmus.test.Litmus.doc;
                Printf.printf "    observed: %s\n"
                  (String.concat " | " r.Litmus.observed);
                let part what = function
                  | [] -> ()
                  | l ->
                    Printf.printf "    %s: %s\n" what (String.concat " | " l)
                in
                part "MISSING" r.Litmus.missing;
                part "UNEXPECTED" r.Litmus.unexpected;
                part "FORBIDDEN OBSERVED" r.Litmus.forbidden_hit
              end)
            results
        end);
    if List.exists (fun r -> not (Litmus.pass r)) results then exit 1
  in
  let models_t =
    let model_conv =
      machine_conv
        ~extra:
          [ ("both", Memsim.Machine.[ sc_config; tso_sync_config ]);
            ("all", Memsim.Machine.all_configs) ]
        (fun mc -> [ mc ])
    in
    Arg.(value & opt model_conv Memsim.Machine.all_configs
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Machine configuration: $(b,sc), $(b,tso-sync) (alias \
                   $(b,tso)), $(b,tso-buffered), $(b,both) (sc + \
                   tso-sync) or $(b,all) (default).")
  in
  let dpor_t =
    Arg.(value & flag
         & info [ "dpor" ]
             ~doc:"Explore with dynamic partial-order reduction instead of \
                   brute-force interleaving enumeration.")
  in
  let test_t =
    Arg.(value & opt (some string) None
         & info [ "test" ] ~docv:"NAME" ~doc:"Run a single named test.")
  in
  let verbose_t =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"Print each test's observed outcome set.")
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:"Exhaustively check the litmus-test suite (classic x86 shapes, \
             Px86 persist-order shapes and buffered-persistency shapes) \
             against declared outcome sets under SC, TSO-sync and \
             TSO-buffered, cross-checking the engine against the ordering \
             oracle.")
    Term.(const run $ obs_t $ models_t $ dpor_t $ test_t $ verbose_t $ csv_t)

let main =
  let doc =
    "reproduction of 'Memory Persistency' (ISCA 2014): persistency models, \
     persist critical-path simulation, persistent queues"
  in
  Cmd.group
    (Cmd.info "persistsim" ~version:"1.0.0" ~doc)
    [ table1_cmd; fig3_cmd; fig4_cmd; fig5_cmd; validate_cmd; recovery_cmd;
      kv_cmd; trace_cmd; analyze_cmd; graph_cmd; ablation_cmd; calibrate_cmd;
      cache_cmd; wear_cmd; consistency_cmd; explore_cmd; lockfree_cmd;
      litmus_cmd; machine_cmd; serve_cmd ]

let () = exit (Cmd.eval main)
