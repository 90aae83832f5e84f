(* Golden and determinism tests: the exact event stream of a minimal
   queue run is pinned, so any unintended change to the machine's
   serialization, the lock protocol, or the queue's access pattern
   shows up as a readable diff. *)

module Q = Workloads.Queue
module M = Memsim.Machine

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let tiny_params =
  { Q.design = Q.Cwl;
    annotation = Q.Epoch;
    threads = 1;
    inserts_per_thread = 1;
    entry_size = 16;
    capacity_entries = 2;
    seed = 1;
    policy = M.Round_robin;
    machine = M.Sc;
        persistence = M.Psync;
        barrier = M.Pbarrier }

let trace_string params =
  let trace = Memsim.Trace.create () in
  let _ = Q.run params ~sink:(Memsim.Trace.sink trace) in
  String.concat "\n"
    (List.map Memsim.Event.to_string (Memsim.Trace.to_list trace))

(* One CWL insert of a 16-byte entry under the epoch annotation:
   label, barrier, lock RMW, barrier, head load, three record words,
   barrier, head store, barrier, unlock store, barrier.  Each barrier
   names its call site.  Addresses: head at 8, data at 16, lock word at
   volatile base + 8. *)
let golden =
  "lb 0 insert\n\
   pb 0 before-lock\n\
   rmw 0 1073741832 8 1\n\
   pb 0 after-lock\n\
   ld 0 8 8 0\n\
   st 0 16 8 16\n\
   st 0 24 8 0\n\
   st 0 32 8 0\n\
   pb 0 data-head\n\
   st 0 8 8 24\n\
   pb 0 after-head\n\
   st 0 1073741832 8 0\n\
   pb 0 after-unlock"

(* The same insert fully annotated (strand): every CWL site, the
   new-strand after the lock. *)
let golden_strand =
  "lb 0 insert\n\
   pb 0 before-lock\n\
   rmw 0 1073741832 8 1\n\
   pb 0 after-lock\n\
   ns 0 strand\n\
   ld 0 8 8 0\n\
   st 0 16 8 16\n\
   st 0 24 8 0\n\
   st 0 32 8 0\n\
   pb 0 data-head\n\
   st 0 8 8 24\n\
   pb 0 after-head\n\
   st 0 1073741832 8 0\n\
   pb 0 after-unlock"

(* One 2LC insert under the epoch annotation: the reserve lock and its
   brackets, the insert-list append, the copy, the update lock and its
   brackets, the insert-list removal and, this insert being the oldest,
   the head update after line 27's barrier.  Reserve lock at volatile
   base + 8, update lock at + 16, the insert list from + 24, the
   volatile head at + 72. *)
let golden_tlc =
  "lb 0 insert\n\
   pb 0 before-reserve\n\
   rmw 0 1073741832 8 1\n\
   pb 0 after-reserve\n\
   ld 0 1073741896 8 0\n\
   st 0 1073741896 8 24\n\
   ld 0 1073741856 8 0\n\
   ld 0 1073741848 8 0\n\
   st 0 1073741864 8 24\n\
   st 0 1073741872 8 0\n\
   st 0 1073741856 8 1\n\
   pb 0 before-reserve-unlock\n\
   st 0 1073741832 8 0\n\
   pb 0 after-reserve-unlock\n\
   st 0 16 8 16\n\
   st 0 24 8 0\n\
   st 0 32 8 0\n\
   pb 0 copy-done\n\
   rmw 0 1073741840 8 1\n\
   pb 0 after-update\n\
   st 0 1073741872 8 1\n\
   ld 0 1073741848 8 0\n\
   ld 0 1073741856 8 1\n\
   ld 0 1073741872 8 1\n\
   ld 0 1073741864 8 24\n\
   ld 0 1073741856 8 1\n\
   st 0 1073741848 8 1\n\
   pb 0 data-head\n\
   st 0 8 8 24\n\
   pb 0 before-update-unlock\n\
   st 0 1073741840 8 0\n\
   pb 0 after-update-unlock"

let test_golden_trace () =
  Alcotest.(check string) "exact event stream" golden (trace_string tiny_params);
  Alcotest.(check string) "CWL, strand" golden_strand
    (trace_string { tiny_params with Q.annotation = Q.Strand });
  Alcotest.(check string) "2LC, epoch" golden_tlc
    (trace_string { tiny_params with Q.design = Q.Tlc })

let test_trace_deterministic () =
  let a = trace_string tiny_params in
  let b = trace_string tiny_params in
  Alcotest.(check string) "identical reruns" a b;
  let multi =
    { tiny_params with
      Q.threads = 3;
      inserts_per_thread = 5;
      capacity_entries = 15;
      policy = M.Random 7 }
  in
  Alcotest.(check string) "seeded random is deterministic"
    (trace_string multi) (trace_string multi)

let test_trace_matches_engine_counts () =
  let params =
    { tiny_params with
      Q.threads = 2;
      inserts_per_thread = 6;
      capacity_entries = 12;
      entry_size = 100;
      policy = M.Random 3 }
  in
  let trace = Memsim.Trace.create () in
  let result = Q.run params ~sink:(Memsim.Trace.sink trace) in
  List.iter
    (fun mode ->
      let e = Persistency.Engine.create (Persistency.Config.make mode) in
      Persistency.Engine.observe_trace e trace;
      checki "engine sees every event" (Memsim.Trace.length trace)
        (Persistency.Engine.events e);
      checki "persist events agree" (Memsim.Trace.persists trace)
        (Persistency.Engine.persist_events e);
      checki "labels agree" result.Q.inserts
        (Persistency.Engine.label_count e "insert"))
    Persistency.Config.all_modes

let test_different_seeds_differ () =
  let params seed =
    { tiny_params with
      Q.threads = 3;
      inserts_per_thread = 5;
      capacity_entries = 15;
      policy = M.Random seed }
  in
  checkb "seeds change interleaving" true
    (trace_string (params 1) <> trace_string (params 2))

let () =
  Alcotest.run "golden"
    [ ( "traces",
        [ Alcotest.test_case "golden event stream" `Quick test_golden_trace;
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "engine counts" `Quick
            test_trace_matches_engine_counts;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ
        ] ) ]
