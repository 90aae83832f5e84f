(* Tests for the systematic interleaving explorer, culminating in
   exhaustive verification of a small persistent queue: every SC
   interleaving x every legal crash state. *)

module M = Memsim.Machine
module P = Persistency
module Q = Workloads.Queue

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let choose k n =
  (* binomial coefficient, for expected interleaving counts *)
  let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
  go 1 1

let two_threads_n_ops n policy =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy ~memory () in
  M.set_sink machine ignore;
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           for i = 0 to n - 1 do
             M.store (a + (8 * t)) (Int64.of_int i)
           done))
  done;
  M.run machine

let test_counts_interleavings () =
  (* two threads of n independent ops have C(2n, n) interleavings; the
     spawn thunks add one forced decision each but no branching beyond
     the op count, so the explorer must find exactly C(2n, n)... the
     start thunks themselves are scheduling decisions, making the space
     slightly larger; just check monotone growth and exact small case *)
  let count n =
    let o = Memsim.Explore.run_all ~limit:100_000 (two_threads_n_ops n) in
    (* a truncated search would silently undercount: completeness is
       part of the contract being tested *)
    checkb (Printf.sprintf "n=%d complete" n) true o.Memsim.Explore.complete;
    o.Memsim.Explore.traces
  in
  let c1 = count 1 and c2 = count 2 in
  checkb "n=1 at least C(2,1)" true (c1 >= choose 1 2);
  checkb "n=2 more traces" true (c2 > c1);
  checkb "n=2 at least C(4,2)" true (c2 >= choose 2 4)

let test_next_prefix () =
  (* the backtracking step in isolation: log = (chosen, runnable count)
     per decision, result = forced prefix of the next depth-first leaf *)
  let np = Memsim.Explore.next_prefix in
  let chk name exp log =
    Alcotest.(check (option (list int))) name exp (np log)
  in
  chk "empty log" None [];
  chk "single-choice log" None [ (0, 1); (0, 1) ];
  chk "all last alternatives" None [ (1, 2); (2, 3) ];
  chk "increments sole decision" (Some [ 1 ]) [ (0, 2) ];
  chk "increments deepest non-last" (Some [ 0; 1 ]) [ (0, 2); (0, 3); (1, 2) ];
  chk "drops exhausted suffix" (Some [ 1 ]) [ (0, 2); (2, 3); (1, 2) ]

let test_complete_flag () =
  let o = Memsim.Explore.run_all ~limit:3 (two_threads_n_ops 3) in
  checki "stopped at limit" 3 o.Memsim.Explore.traces;
  checkb "incomplete" false o.Memsim.Explore.complete;
  let o2 = Memsim.Explore.run_all ~limit:100_000 (two_threads_n_ops 1) in
  checkb "complete" true o2.Memsim.Explore.complete

let test_distinct_traces () =
  (* the explorer must enumerate distinct interleavings *)
  let seen = Hashtbl.create 64 in
  let run policy =
    let memory = Memsim.Memory.create () in
    let machine = M.create ~policy ~memory () in
    let trace = Memsim.Trace.create () in
    M.set_sink machine (Memsim.Trace.sink trace);
    let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
    for t = 0 to 1 do
      ignore
        (M.spawn machine (fun () -> M.store (a + (8 * t)) (Int64.of_int t)))
    done;
    M.run machine;
    let key =
      String.concat ";"
        (List.map Memsim.Event.to_string (Memsim.Trace.to_list trace))
    in
    Hashtbl.replace seen key ()
  in
  let o = Memsim.Explore.run_all ~limit:1000 run in
  checkb "complete" true o.Memsim.Explore.complete;
  (* two single-store threads: exactly 2 distinct event orders *)
  checki "distinct traces" 2 (Hashtbl.length seen)

(* --- TSO: drain decisions in the exploration interface ------------- *)

(* Store-buffering shape; returns the trace rendered as a string so
   distinct interleavings (including distinct drain orders) are
   distinguishable, plus the two load results. *)
let sb_run model policy =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy ~model ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let x = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let y = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let r = [| 0L; 0L |] in
  ignore
    (M.spawn machine (fun () ->
         M.store x 1L;
         r.(0) <- M.load y));
  ignore
    (M.spawn machine (fun () ->
         M.store y 1L;
         r.(1) <- M.load x));
  M.run machine;
  let key =
    String.concat ";"
      (List.map Memsim.Event.to_string (Memsim.Trace.to_list trace))
  in
  (key, r.(0), r.(1))

let test_tso_widens_exploration () =
  (* under TSO the drain pseudo-threads are extra scheduling decisions:
     more interleavings, more distinct traces, and the SC-forbidden
     outcome r0 = r1 = 0 appears *)
  let census model =
    let traces = Hashtbl.create 64 in
    let weak = ref false in
    let o =
      Memsim.Explore.run_all ~limit:100_000 (fun policy ->
          let key, r0, r1 = sb_run model policy in
          Hashtbl.replace traces key ();
          if r0 = 0L && r1 = 0L then weak := true)
    in
    checkb "complete" true o.Memsim.Explore.complete;
    (o.Memsim.Explore.traces, Hashtbl.length traces, !weak)
  in
  let sc_runs, sc_traces, sc_weak = census M.Sc in
  let tso_runs, tso_traces, tso_weak = census M.Tso in
  checkb "tso explores more interleavings" true (tso_runs > sc_runs);
  checkb "tso has more distinct traces" true (tso_traces > sc_traces);
  checkb "sc forbids r0=r1=0" false sc_weak;
  checkb "tso allows r0=r1=0" true tso_weak

let test_next_prefix_drain_roundtrip () =
  (* drive the depth-first enumeration by hand through
     [script_choices] -> [next_prefix] -> [script ~forced] on the TSO
     store-buffering program: the leaf count must match [run_all]'s,
     and every forced prefix must replay verbatim (the prefix of the
     new log equals the forced decisions) — drain choices are ordinary
     decision indices throughout. *)
  let oracle =
    Memsim.Explore.run_all ~limit:100_000 (fun policy ->
        ignore (sb_run M.Tso policy))
  in
  let leaves = ref 0 in
  let rec go forced =
    let s = M.script ~forced in
    ignore (sb_run M.Tso (M.Scripted s));
    incr leaves;
    let log = M.script_choices s in
    let replayed = List.filteri (fun i _ -> i < List.length forced) log in
    Alcotest.(check (list int))
      "forced prefix replayed verbatim" forced
      (List.map fst replayed);
    match Memsim.Explore.next_prefix log with
    | Some forced' -> go forced'
    | None -> ()
  in
  go [];
  checki "manual DFS visits run_all's leaves" oracle.Memsim.Explore.traces
    !leaves

let test_tso_scripted_replay () =
  (* any TSO run — drains and all — is reproducible by forcing its
     recorded decisions: same trace, same loads, run after run *)
  let s0 = M.script ~forced:[] in
  let key0, r0, r1 = sb_run M.Tso (M.Scripted s0) in
  let forced = List.map fst (M.script_choices s0) in
  for _ = 1 to 2 do
    let key, r0', r1' = sb_run M.Tso (M.Scripted (M.script ~forced)) in
    Alcotest.(check string) "same trace" key0 key;
    checkb "same registers" true (r0 = r0' && r1 = r1')
  done

let test_scripted_out_of_range () =
  Alcotest.match_raises "bad script index"
    (function
      | M.Script_out_of_range { decision = 0; choice = 99; runnable = 2 } ->
        true
      | _ -> false)
    (fun () ->
      let s = M.script ~forced:[ 99 ] in
      two_threads_n_ops 1 (M.Scripted s))

(* The headline: exhaustive verification of a tiny queue.  Every
   interleaving of 2 threads x [inserts_per_thread] inserts of a
   16-byte entry; for each trace, every legal crash state of the
   persist dependence graph — or [sample_cuts] seeded random
   down-closed cuts per trace.  CWL's single lock keeps the
   interleaving space exhaustively small; 2LC's concurrent copies blow
   it past 2M, so for 2LC we bound the depth-first search too
   ([require_complete = false]).

   When a violation is expected ([expect_safe = false]) the first one
   found aborts the exploration: the claim is existential, and e.g. the
   3-insert space has 400k+ interleavings. *)
exception Bug_found

let exhaustive_queue ?(design = Q.Cwl) ?(limit = 20_000)
    ?(require_complete = true) ?(inserts_per_thread = 1)
    ?(capacity_entries = 2) ?sample_cuts annotation mode ~expect_safe () =
  let failures = ref 0 in
  let rng = Random.State.make [| 17 |] in
  let run policy =
    let params =
      { Q.design = design;
        annotation;
        threads = 2;
        inserts_per_thread;
        entry_size = 16;
        capacity_entries;
        seed = 1;
        policy;
        machine = M.Sc;
        persistence = M.Psync;
        barrier = M.Pbarrier }
    in
    let cfg = P.Config.make ~record_graph:true mode in
    let engine = P.Engine.create cfg in
    let result = Q.run params ~sink:(P.Engine.observe engine) in
    let layout = result.Q.layout in
    let graph = Option.get (P.Engine.graph engine) in
    let capacity = layout.Q.data_addr + layout.Q.data_bytes in
    let dag = P.Persist_graph.dag graph in
    let cuts =
      match sample_cuts with
      | Some n -> List.init n (fun _ -> P.Dag.random_down_closed dag rng)
      | None ->
        if require_complete then P.Dag.all_down_closed dag
        else List.init 25 (fun _ -> P.Dag.random_down_closed dag rng)
    in
    List.iter
      (fun cut ->
        let image = P.Observer.image_of_cut graph cut ~capacity in
        match Workloads.Queue_recovery.check ~params ~layout image with
        | Ok () -> ()
        | Error _ ->
          incr failures;
          if not expect_safe then raise Bug_found)
      cuts
  in
  match Memsim.Explore.run_all ~limit run with
  | o ->
    if require_complete then
      checkb "explored all interleavings" true o.Memsim.Explore.complete;
    checkb "several interleavings" true (o.Memsim.Explore.traces > 10);
    if expect_safe then
      checki
        (Printf.sprintf "no violation in %d interleavings"
           o.Memsim.Explore.traces)
        0 !failures
    else checkb "bug found by exploration" true (!failures > 0)
  | exception Bug_found ->
    checkb "bug found by exploration" true (!failures > 0)

let test_exhaustive_epoch () =
  exhaustive_queue Q.Epoch P.Config.Epoch ~expect_safe:true ()

let test_exhaustive_strand () =
  exhaustive_queue Q.Strand P.Config.Strand ~expect_safe:true ()

let test_exhaustive_strict () =
  exhaustive_queue Q.Unannotated P.Config.Strict ~expect_safe:true ()

let test_exhaustive_buggy () =
  exhaustive_queue Q.Buggy_epoch P.Config.Epoch ~expect_safe:false ()

let test_exhaustive_tlc () =
  (* 2LC copies outside the locks: genuinely concurrent interleavings *)
  exhaustive_queue ~design:Q.Tlc ~limit:800 ~require_complete:false Q.Racing
    P.Config.Epoch ~expect_safe:true ()

let test_exhaustive_tlc_buggy () =
  exhaustive_queue ~design:Q.Tlc ~limit:800 ~require_complete:false
    Q.Buggy_epoch P.Config.Epoch ~expect_safe:false ()

(* Deeper CWL runs: 2 threads x 3 inserts each.  The safe case goes
   through DPOR and the failure-injection driver: 212 schedules cover
   every trace class of the 423,556 interleavings (`make census` checks
   that equivalence against brute force, graph for graph), and each of
   the 20 distinct 24-persist graphs — within [Dag.all_down_closed]'s
   24-node ceiling — has every one of its 49 crash states checked,
   through the structural invariant and the durable-linearizability
   observer.  The buggy variant brute-forces interleavings and aborts
   at the first violation. *)
let test_exhaustive_three_inserts_epoch () =
  let params =
    Check.Driver.queue.params ~threads:2 ~depth:3 ~seed:1
      Memsim.Machine.sc_config Q.Epoch
  in
  let r =
    Check.Driver.check
      ~strategy:(fun _ -> Recovery.Exhaustive)
      (Check.Driver.instance Check.Driver.queue params
         (P.Config.make P.Config.Epoch))
  in
  checkb "every trace class explored" true r.stats.complete;
  checki "schedules" 212 r.stats.schedules;
  checki "distinct persist graphs" 20 r.distinct;
  checki "every graph recovery-checked" 20 r.checked;
  checki "every crash state of every graph" 980 r.prefixes;
  checkb "no violation" true (r.failure = None)

let test_exhaustive_three_inserts_buggy () =
  exhaustive_queue ~inserts_per_thread:3 ~capacity_entries:6 ~limit:500_000
    ~sample_cuts:40 Q.Buggy_epoch P.Config.Epoch ~expect_safe:false ()

let () =
  Alcotest.run "explore"
    [ ( "explorer",
        [ Alcotest.test_case "counts interleavings" `Quick
            test_counts_interleavings;
          Alcotest.test_case "next_prefix backtracking" `Quick
            test_next_prefix;
          Alcotest.test_case "complete flag" `Quick test_complete_flag;
          Alcotest.test_case "distinct traces" `Quick test_distinct_traces;
          Alcotest.test_case "tso widens exploration" `Quick
            test_tso_widens_exploration;
          Alcotest.test_case "next_prefix round-trip with drains" `Quick
            test_next_prefix_drain_roundtrip;
          Alcotest.test_case "tso scripted replay" `Quick
            test_tso_scripted_replay;
          Alcotest.test_case "script validation" `Quick
            test_scripted_out_of_range ] );
      ( "exhaustive-queue",
        [ Alcotest.test_case "epoch safe" `Slow test_exhaustive_epoch;
          Alcotest.test_case "strand safe" `Slow test_exhaustive_strand;
          Alcotest.test_case "strict safe" `Slow test_exhaustive_strict;
          Alcotest.test_case "buggy caught" `Slow test_exhaustive_buggy;
          Alcotest.test_case "2LC racing safe" `Slow test_exhaustive_tlc;
          Alcotest.test_case "2LC buggy caught" `Slow test_exhaustive_tlc_buggy;
          Alcotest.test_case "3-insert epoch safe" `Slow
            test_exhaustive_three_inserts_epoch;
          Alcotest.test_case "3-insert buggy caught" `Slow
            test_exhaustive_three_inserts_buggy
        ] ) ]
