(* Differential fuzzing of the persist-timing engine against the
   reference oracle.

   A seeded generator produces random SC traces — loads, stores, RMWs,
   persist barriers and strand boundaries over a small address set in
   both address spaces, 2-4 threads — and for every trace and every
   persistency model checks:

   - critical path, differentially: [Engine.critical_path] with
     coalescing disabled must equal [Oracle.critical_path], the
     longest required-ordered persist chain computed independently by
     longest-path dynamic programming over the closed persistent
     memory order (an engine that over- or under-approximates ordering
     fails this even when its levels are internally consistent);
   - coalescing on: [Oracle.verify_engine] validates node assignment,
     graph acyclicity, level monotonicity and every coalescing
     decision, plus the engine's coalesced critical path never exceeds
     the uncoalesced one;

   and on failure prints the offending trace as a replayable event
   list ([Event.to_string] per line, parseable by [Event.of_string] /
   [Trace.of_channel]).

   FUZZ_TRACES scales the run (default 200 traces per model; the
   Makefile `fuzz` target uses 2000).  The per-model suites run on the
   domain pool — the fuzzer dogfoods lib/parallel. *)

module E = Memsim.Event
module P = Persistency

let traces_per_model =
  match Sys.getenv_opt "FUZZ_TRACES" with
  | Some v -> (try max 1 (int_of_string v) with Failure _ -> 200)
  | None -> 200

let vb = Memsim.Addr.volatile_base

(* Small address set: five persistent words (two sharing a 16-byte
   block, exercising coarse granularities) and two volatile words. *)
let addresses = [| 8; 16; 24; 32; 64; vb + 8; vb + 16 |]

let gen_events rng ~threads ~len addresses =
  List.init len (fun _ ->
      let tid = Random.State.int rng threads in
      match Random.State.int rng 10 with
      | 0 | 1 | 2 ->
        let addr = addresses.(Random.State.int rng (Array.length addresses)) in
        E.Access
          ( E.Load,
            { tid; addr; size = 8; value = 0L;
              space = Memsim.Addr.space_of addr } )
      | 3 | 4 | 5 | 6 ->
        let addr = addresses.(Random.State.int rng (Array.length addresses)) in
        E.Access
          ( E.Store,
            { tid; addr; size = 8;
              value = Int64.of_int (Random.State.int rng 1000);
              space = Memsim.Addr.space_of addr } )
      | 7 ->
        let addr = addresses.(Random.State.int rng (Array.length addresses)) in
        E.Access
          ( E.Rmw,
            { tid; addr; size = 8;
              value = Int64.of_int (Random.State.int rng 1000);
              space = Memsim.Addr.space_of addr } )
      | 8 -> E.Persist_barrier { tid; site = "" }
      | _ -> E.New_strand { tid; site = "" })

let gen_trace rng =
  let threads = 2 + Random.State.int rng 3 in
  let len = 20 + Random.State.int rng 60 in
  gen_events rng ~threads ~len addresses

(* Wide traces for the engine's int-keyed state: up to 40 threads, and
   8 to 31 words drawn from four clusters far apart — the bottom of the
   persistent space, just below and just above 1 MiB, and the same two
   spots in the volatile space — so the per-thread array, the block and
   open-persist tables and the closed-node bitmap all grow past their
   initial sizes and the tables see keys a megabyte and more apart. *)
let gen_wide_trace rng =
  let threads = 1 + Random.State.int rng 40 in
  let len = 40 + Random.State.int rng 160 in
  let bases = [| 0; (1 lsl 20) - 128; vb; vb + (1 lsl 20) - 128 |] in
  let addresses =
    Array.init
      (8 + Random.State.int rng 24)
      (fun _ ->
        bases.(Random.State.int rng 4) + (8 * (1 + Random.State.int rng 32)))
  in
  gen_events rng ~threads ~len addresses

(* Tracking and persist granularities of 8 or 64 bytes, any model. *)
let wide_cfg rng =
  let gran () = if Random.State.bool rng then 8 else 64 in
  let mode =
    List.nth P.Config.all_modes
      (Random.State.int rng (List.length P.Config.all_modes))
  in
  let track_gran = gran () in
  let persist_gran = gran () in
  P.Config.make ~track_gran ~persist_gran mode

let replayable events =
  String.concat "\n" (List.map E.to_string events)

let fail_with_trace ~name ~seed events fmt =
  Printf.ksprintf
    (fun msg ->
      Alcotest.failf
        "%s (seed %d): %s\nreplayable trace (Event.of_string per line):\n%s"
        name seed msg (replayable events))
    fmt

(* Each fuzz iteration is a span when TRACE_OUT is set, so a campaign's
   timeline shows iteration cost and the domain that ran it. *)
let traced ~name ~seed f =
  if Obs.Tracer.enabled () then
    Obs.Tracer.with_span ~cat:"fuzz"
      ~args:[ ("seed", string_of_int seed) ]
      name f
  else f ()

let m_iter_rate =
  Obs.Metrics.gauge_max Obs.Metrics.default "fuzz.iterations_per_sec"

(* One fuzz campaign: [count] seeded traces against one configuration.
   With METRICS_OUT set the campaign reports its iterations/sec; with
   PROGRESS=1 a long campaign heartbeats on stderr. *)
let fuzz_config ~name ~count ~gen mk_cfg =
  let span =
    if Obs.Perfscope.enabled () then Some (Obs.Perfscope.start ()) else None
  in
  let prog = Obs.Perfscope.progress_start ~total:count ("fuzz " ^ name) in
  (for seed = 1 to count do
    Obs.Perfscope.progress_step prog;
    traced ~name ~seed @@ fun () ->
    let rng = Random.State.make [| 0x9e3779b9; seed |] in
    let events = gen rng in
    let trace = Memsim.Trace.of_list events in
    let cfg : P.Config.t = mk_cfg rng in
    let name = Format.asprintf "%s, %a" name P.Config.pp cfg in
    (* Differential critical path, coalescing off: engine vs the
       oracle's longest required-ordered persist chain. *)
    let cfg_nc = { cfg with P.Config.coalescing = false } in
    let engine = P.Engine.create cfg_nc in
    P.Engine.observe_trace engine trace;
    let ecp = P.Engine.critical_path engine in
    let ocp = P.Oracle.critical_path (P.Oracle.build cfg_nc trace) in
    if ecp <> ocp then
      fail_with_trace ~name ~seed events
        "critical path mismatch (no coalescing): engine %d, oracle %d" ecp ocp;
    (* Coalescing on: the full oracle verification, plus the coalesced
       critical path can only shrink. *)
    let engine_c = P.Engine.create cfg in
    P.Engine.observe_trace engine_c trace;
    let ccp = P.Engine.critical_path engine_c in
    if ccp > ecp then
      fail_with_trace ~name ~seed events
        "coalescing increased the critical path: %d > %d" ccp ecp;
    (match P.Oracle.verify_engine cfg trace with
    | Ok () -> ()
    | Error msg -> fail_with_trace ~name ~seed events "oracle: %s" msg)
  done);
  Obs.Perfscope.progress_finish prog;
  match span with
  | Some s ->
    let d = Obs.Perfscope.finish s in
    Obs.Perfscope.throughput m_iter_rate ~items:count
      ~seconds:d.Obs.Perfscope.wall_s
  | None -> ()

(* KV campaign: instead of random event soup, traces come from the KV
   store workload — structured probe/log/store patterns with locks and
   per-operation strands — and the engine must still agree with the
   oracle on the critical path (coalescing off) and pass the full
   verification (coalescing on). *)
let gen_kv_params rng mode =
  let discipline =
    if mode = P.Config.Epoch && Random.State.int rng 4 = 0 then Kv.Buggy_undo
    else Kv.discipline_for mode
  in
  let groups = 2 + Random.State.int rng 3 in
  let group_size = 2 + Random.State.int rng 3 in
  { Kv.discipline;
    threads = 1 + Random.State.int rng 3;
    ops_per_thread = 4 + Random.State.int rng 6;
    get_every = [| 0; 0; 2; 3; 4 |].(Random.State.int rng 5);
    key_space = 1 + Random.State.int rng (groups * group_size);
    groups;
    group_size;
    seed = Random.State.int rng 10_000;
    policy = Memsim.Machine.Random (Random.State.int rng 10_000);
    dist = Workloads.Keygen.Uniform;
    machine = Memsim.Machine.Sc;
    persistence = Memsim.Machine.Psync;
    barrier = Memsim.Machine.Pbarrier }

let fuzz_kv ~name ~count mode =
  for seed = 1 to count do
    traced ~name ~seed @@ fun () ->
    let rng = Random.State.make [| 0x517cc1b7; seed |] in
    let params = gen_kv_params rng mode in
    let trace = Memsim.Trace.create () in
    let _ = Kv.run params ~sink:(Memsim.Trace.sink trace) in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Alcotest.failf "%s (seed %d, %s): %s" name seed
            (Format.asprintf "%a" Kv.pp_params params)
            msg)
        fmt
    in
    let cfg = P.Config.make mode in
    let cfg_nc = { cfg with P.Config.coalescing = false } in
    let engine = P.Engine.create cfg_nc in
    P.Engine.observe_trace engine trace;
    let ecp = P.Engine.critical_path engine in
    let ocp = P.Oracle.critical_path (P.Oracle.build cfg_nc trace) in
    if ecp <> ocp then
      fail "critical path mismatch (no coalescing): engine %d, oracle %d" ecp
        ocp;
    match P.Oracle.verify_engine cfg trace with
    | Ok () -> ()
    | Error msg -> fail "oracle: %s" msg
  done

(* ------------------------------------------------------------------ *)
(* Explorer-seeded corpus: schedules found by the DPOR explorer
   (lib/check) — ordinary interleavings and recovery counter-examples
   from the buggy workload variants — persisted through their string
   form, replayed as [Scripted] scripts ([Machine.script ~forced]), and
   verified like any fuzz trace: the replay must reproduce the explored
   trace exactly, and the engine must agree with [Oracle.critical_path]
   on it. *)

module Q = Workloads.Queue

(* A family's 2-thread, depth-2 explore shape on the SC machine. *)
let sc_params (f : (_, _, _, _) Check.Driver.family) =
  f.params ~threads:2 ~depth:2 ~seed:1 Memsim.Machine.sc_config

let events (f : (_, _, _, _) Check.Driver.family) variant policy =
  let trace = Memsim.Trace.create () in
  ignore (f.run (sc_params f variant) policy ~sink:(Memsim.Trace.sink trace));
  Memsim.Trace.to_list trace

let check_corpus_trace ~what mode trace =
  let cfg = P.Config.make mode in
  let cfg_nc = { cfg with P.Config.coalescing = false } in
  let engine = P.Engine.create cfg_nc in
  P.Engine.observe_trace engine trace;
  let ecp = P.Engine.critical_path engine in
  let ocp = P.Oracle.critical_path (P.Oracle.build cfg_nc trace) in
  if ecp <> ocp then
    Alcotest.failf
      "%s: critical path mismatch (no coalescing): engine %d, oracle %d" what
      ecp ocp;
  match P.Oracle.verify_engine cfg trace with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: oracle: %s" what msg

let test_explorer_corpus () =
  let entries = ref [] in
  (* a slice of the safe workload's explored schedules *)
  let run = events Check.Driver.queue Q.Epoch in
  ignore
    (Check.Dpor.explore ~max_schedules:12
       ~on_exec:(fun sched evs ->
         entries := ("cwl/epoch", run, sched, evs) :: !entries;
         Check.Dpor.Continue)
       run);
  (* the counter-example schedules the driver finds on the buggy
     variants *)
  let add_failure what instance_of events_of =
    let report =
      Check.Driver.check ~max_schedules:512
        ~strategy:(Recovery.auto ~samples:64 ~seed:1)
        instance_of
    in
    match report.Check.Driver.failure with
    | None -> Alcotest.failf "%s: expected a recovery counter-example" what
    | Some (sched, _) ->
      let explored =
        events_of (Memsim.Machine.Scripted (Check.Schedule.to_script sched))
      in
      entries := (what, events_of, sched, explored) :: !entries
  in
  let epoch_cfg = P.Config.make P.Config.Epoch in
  let add_drop (f : (_, _, _, _) Check.Driver.family) what =
    add_failure what
      (Check.Driver.instance f (sc_params f f.drop) epoch_cfg)
      (events f f.drop)
  in
  add_drop Check.Driver.queue "cwl/buggy-epoch";
  add_drop Check.Driver.kv "kv/buggy-undo";
  Alcotest.(check bool) "corpus populated" true (List.length !entries >= 10);
  List.iter
    (fun (what, events_of, sched, explored) ->
      let persisted = Check.Schedule.of_string (Check.Schedule.to_string sched) in
      let replayed =
        events_of (Memsim.Machine.Scripted (Check.Schedule.to_script persisted))
      in
      if List.map E.to_string replayed <> List.map E.to_string explored then
        Alcotest.failf "%s: replay diverged from the explored trace" what;
      check_corpus_trace ~what P.Config.Epoch (Memsim.Trace.of_list replayed))
    !entries

(* ------------------------------------------------------------------ *)
(* SC/TSO differential on race-free litmus programs.

   Store buffering is invisible to a program whose threads touch
   disjoint variables: drains reorder a thread's stores only relative
   to *other* threads' accesses, never to a conflicting one.  So for a
   generated race-free program (2 threads x <=4 ops — stores, loads,
   flushes, fences, persist barriers — over per-thread variables) the
   census of persist-graph fingerprints over all interleavings must be
   identical under SC and TSO, even though TSO explores strictly more
   interleavings.  A machine bug that let a drain slip past its
   thread's fence, or an engine bug sensitive to benign trace
   reorderings, breaks the equality. *)

let litmus_traces = max 1 (traces_per_model / 10)

let gen_litmus_instr rng var =
  match Random.State.int rng 8 with
  | 0 | 1 | 2 -> Litmus.St (var, 1 + Random.State.int rng 3)
  | 3 -> Litmus.Ld (var, "r" ^ string_of_int (Random.State.int rng 2))
  | 4 -> Litmus.Flush var
  | 5 -> Litmus.Clwb var
  | 6 -> if Random.State.bool rng then Litmus.Sfence else Litmus.Mfence
  | _ -> Litmus.Pbarrier

let gen_racefree_test rng seed =
  (* thread t owns variables a<t> and b<t>: no cross-thread conflicts *)
  let thread t =
    let ops = 1 + Random.State.int rng 4 in
    let own = [| Printf.sprintf "a%d" t; Printf.sprintf "b%d" t |] in
    List.init ops (fun _ ->
        gen_litmus_instr rng own.(Random.State.int rng 2))
  in
  { Litmus.name = Printf.sprintf "racefree-%d" seed;
    doc = "generated race-free program";
    vars = [ "a0"; "b0"; "a1"; "b1" ];
    threads = [ thread 0; thread 1 ];
    observe = [];
    sc = { Litmus.allowed = []; forbidden = [] };
    tso = { Litmus.allowed = []; forbidden = [] };
    tso_buf = None }

let fingerprint_census t (config : Litmus.mconfig) =
  let seen = Hashtbl.create 64 in
  let cfg =
    if config.Memsim.Machine.persistence = Memsim.Machine.Pbuffered then
      Litmus.buffered_cfg
    else Litmus.default_cfg
  in
  let run policy =
    let memory = Memsim.Memory.create ~persistent_capacity:1024 () in
    let machine =
      Memsim.Machine.create ~policy ~model:config.Memsim.Machine.model
        ~persistence:config.Memsim.Machine.persistence ~memory ()
    in
    let engine = P.Engine.create cfg in
    Memsim.Machine.set_sink machine (P.Engine.observe engine);
    let addrs =
      List.map
        (fun v -> (v, Memsim.Memory.alloc memory Memsim.Addr.Persistent 8))
        t.Litmus.vars
    in
    let regs = Hashtbl.create 8 in
    List.iteri
      (fun tid instrs ->
        ignore
          (Memsim.Machine.spawn machine
             (Litmus.exec_thread regs (fun v -> List.assoc v addrs) tid instrs)))
      t.Litmus.threads;
    Memsim.Machine.run machine;
    let graph = Option.get (P.Engine.graph engine) in
    Hashtbl.replace seen (P.Graph_export.fingerprint graph) ()
  in
  (* The limit only bounds how complete the census is: a census that
     stops short still fails below.  Long generated programs need it
     large: with FUZZ_TRACES=2000, fenced-141 takes 720,720 traces
     under tso-buffered. *)
  let o = Memsim.Explore.run_all ~limit:1_000_000 run in
  if not o.Memsim.Explore.complete then
    Alcotest.failf "%s/%s: exploration hit the limit" t.Litmus.name
      config.Memsim.Machine.mlabel;
  ( o.Memsim.Explore.traces,
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []) )

let test_racefree_sc_tso_census () =
  for seed = 1 to litmus_traces do
    traced ~name:"racefree-sc-tso" ~seed @@ fun () ->
    let rng = Random.State.make [| 0x2545f491; seed |] in
    let t = gen_racefree_test rng seed in
    let sc_traces, sc_census = fingerprint_census t Memsim.Machine.sc_config in
    let tso_traces, tso_census =
      fingerprint_census t Memsim.Machine.tso_sync_config
    in
    if sc_census <> tso_census then
      Alcotest.failf
        "%s: fingerprint census diverged (sc %d fingerprints / %d traces, \
         tso %d / %d)"
        t.Litmus.name (List.length sc_census) sc_traces
        (List.length tso_census) tso_traces
  done

(* ------------------------------------------------------------------ *)
(* Sync/buffered differential on fully-fenced race-free programs.

   An sfence immediately after every clflushopt/clwb leaves the
   persistence buffer no same-thread room: the fence is a drain
   frontier, so by the time the thread's next persist is created its
   flushed line is committed — exactly when synchronous Px86 would
   have drained it.  For such a program the persist-graph fingerprint
   census over all interleavings (order edges included) must be
   identical under TSO-sync and TSO-buffered, even though the buffered
   machine explores strictly more schedules (every drain placement).

   Race-freedom is required, not incidental: with a cross-thread
   conflict a reader can act on a *published* value while the writer's
   flushed line still sits in the persistence buffer, so the reader's
   persists reach NVRAM first — the buffered-only litmus outcomes
   (cross-thread-flush-async and friends).  Fenced-but-racy programs
   genuinely distinguish the two machines; fenced race-free ones must
   not. *)

let gen_fenced_test rng seed =
  let thread t =
    let ops = 1 + Random.State.int rng 3 in
    let own = [| Printf.sprintf "a%d" t; Printf.sprintf "b%d" t |] in
    List.concat_map
      (fun _ ->
        match gen_litmus_instr rng own.(Random.State.int rng 2) with
        | (Litmus.Flush _ | Litmus.Clwb _) as f -> [ f; Litmus.Sfence ]
        | i -> [ i ])
      (List.init ops Fun.id)
  in
  { Litmus.name = Printf.sprintf "fenced-%d" seed;
    doc = "generated fully-fenced race-free program";
    vars = [ "a0"; "b0"; "a1"; "b1" ];
    threads = [ thread 0; thread 1 ];
    observe = [];
    sc = { Litmus.allowed = []; forbidden = [] };
    tso = { Litmus.allowed = []; forbidden = [] };
    tso_buf = None }

let test_fenced_sync_buffered_census () =
  for seed = 1 to litmus_traces do
    traced ~name:"fenced-sync-buffered" ~seed @@ fun () ->
    let rng = Random.State.make [| 0x6c62272e; seed |] in
    let t = gen_fenced_test rng seed in
    let sync_traces, sync_census =
      fingerprint_census t Memsim.Machine.tso_sync_config
    in
    let buf_traces, buf_census =
      fingerprint_census t Memsim.Machine.tso_buffered_config
    in
    if sync_census <> buf_census then
      Alcotest.failf
        "%s: fingerprint census diverged (tso-sync %d fingerprints / %d \
         traces, tso-buffered %d / %d)"
        t.Litmus.name (List.length sync_census) sync_traces
        (List.length buf_census) buf_traces
  done

type campaign = {
  c_name : string;
  count : int;
  gen : Random.State.t -> E.t list;
  mk_cfg : Random.State.t -> P.Config.t;
      (* drawn after the trace, from the same generator *)
}

let campaigns =
  (* The three models at full scale, then the ablation/consistency
     variants at reduced scale. *)
  List.map
    (fun mode ->
      { c_name = P.Config.mode_name mode;
        count = traces_per_model;
        gen = gen_trace;
        mk_cfg = (fun _ -> P.Config.make mode) })
    P.Config.all_modes
  @ [ { c_name = "strict/tso";
        count = (traces_per_model + 1) / 2;
        gen = gen_trace;
        mk_cfg =
          (fun _ -> P.Config.make ~consistency:P.Config.Tso P.Config.Strict) };
      { c_name = "strict/rmo";
        count = (traces_per_model + 1) / 2;
        gen = gen_trace;
        mk_cfg =
          (fun _ -> P.Config.make ~consistency:P.Config.Rmo P.Config.Strict) };
      { c_name = "epoch/tso-conflicts";
        count = (traces_per_model + 1) / 2;
        gen = gen_trace;
        mk_cfg = (fun _ -> P.Config.make ~tso_conflicts:true P.Config.Epoch) };
      { c_name = "epoch/persistent-only";
        count = (traces_per_model + 1) / 2;
        gen = gen_trace;
        mk_cfg =
          (fun _ ->
            P.Config.make ~persistent_only_conflicts:true P.Config.Epoch) };
      { c_name = "epoch/coarse";
        count = (traces_per_model + 1) / 2;
        gen = gen_trace;
        mk_cfg =
          (fun _ -> P.Config.make ~track_gran:16 ~persist_gran:32 P.Config.Epoch)
      };
      { c_name = "strand/coarse";
        count = (traces_per_model + 1) / 2;
        gen = gen_trace;
        mk_cfg =
          (fun _ ->
            P.Config.make ~track_gran:16 ~persist_gran:32 P.Config.Strand) };
      { c_name = "wide";
        count = traces_per_model;
        gen = gen_wide_trace;
        mk_cfg = wide_cfg } ]

(* The campaigns are independent; run them as cells on the domain
   pool.  Alcotest reports per-campaign, the pool re-raises the first
   failing campaign's exception with its label attached. *)
let test_all_campaigns () =
  ignore
    (Parallel.Pool.map_cells
       ~label:(fun _ c -> c.c_name)
       (fun c -> fuzz_config ~name:c.c_name ~count:c.count ~gen:c.gen c.mk_cfg)
       campaigns)

(* Single-campaign cases so `dune runtest` shows per-model results;
   these are cheap enough sequentially at the default scale. *)
let test_one c () =
  fuzz_config ~name:c.c_name ~count:c.count ~gen:c.gen c.mk_cfg

let kv_traces = max 1 (traces_per_model / 4)

let () =
  Obs.Setup.from_env ();
  Alcotest.run "fuzz"
    [ ( "differential",
        Alcotest.test_case
          (Printf.sprintf "all campaigns, %d traces/model (pooled)"
             traces_per_model)
          `Slow test_all_campaigns
        :: List.map
             (fun c ->
               Alcotest.test_case
                 (Printf.sprintf "%s (%d traces)" c.c_name c.count)
                 `Quick (test_one c))
             campaigns ) ;
      ( "kv-differential",
        List.map
          (fun mode ->
            let name = "kv/" ^ P.Config.mode_name mode in
            Alcotest.test_case
              (Printf.sprintf "%s (%d traces)" name kv_traces)
              `Quick
              (fun _ -> fuzz_kv ~name ~count:kv_traces mode))
          P.Config.all_modes );
      ( "explorer-corpus",
        [ Alcotest.test_case "replayed schedules agree with the oracle"
            `Quick test_explorer_corpus ] );
      ( "sc-tso-differential",
        [ Alcotest.test_case
            (Printf.sprintf "race-free census equal (%d programs)"
               litmus_traces)
            `Quick test_racefree_sc_tso_census ] );
      ( "sync-buffered-differential",
        [ Alcotest.test_case
            (Printf.sprintf "fully-fenced race-free census equal (%d programs)"
               litmus_traces)
            `Quick test_fenced_sync_buffered_census ] ) ]
