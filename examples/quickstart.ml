(* Quickstart: write a tiny two-thread program against the simulated
   memory, trace it, analyze the trace under the three persistency
   models, and inspect the crash states the recovery observer allows.

   Each thread publishes its own persistent record with the classic
   idiom: write the fields, then the valid flag.  Whether a crash can
   expose a record whose flag is set but whose fields are missing
   depends on the persistency model and on the annotation:

   - strict persistency orders the persists by program order alone;
   - epoch persistency needs the persist barrier between fields and
     flag — without it the persists are concurrent and recovery can
     observe the flag first.

   Exits 1 if a run contradicts either point.

   Run with: dune exec examples/quickstart.exe *)

module M = Memsim.Machine
module P = Persistency

type record_addrs = { field_a : int; field_b : int; valid : int }

let run_publisher ~with_barrier =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy:(M.Random 1) ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let records =
    Array.init 2 (fun _ ->
        { field_a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8;
          field_b = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8;
          valid = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 })
  in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           let r = records.(t) in
           M.store r.field_a (Int64.of_int (10 * (t + 1)));
           M.store r.field_b (Int64.of_int (100 * (t + 1)));
           if with_barrier then M.persist_barrier ();
           M.store r.valid 1L))
  done;
  M.run machine;
  (records, trace)

let count_violations records graph =
  let dag = P.Persist_graph.dag graph in
  let cuts = P.Dag.all_down_closed dag in
  let bad = ref 0 in
  List.iter
    (fun cut ->
      let image = P.Observer.image_of_cut graph cut ~capacity:64 in
      let read addr = Int64.to_int (Bytes.get_int64_le image addr) in
      Array.iteri
        (fun t r ->
          if
            read r.valid = 1
            && not (read r.field_a = 10 * (t + 1) && read r.field_b = 100 * (t + 1))
          then incr bad)
        records)
    cuts;
  (List.length cuts, !bad)

let () =
  let ok = ref true in
  List.iter
    (fun with_barrier ->
      Printf.printf "--- %s ---\n"
        (if with_barrier then "fields, PERSIST BARRIER, valid flag"
         else "fields, valid flag (no barrier)");
      let records, trace = run_publisher ~with_barrier in
      Printf.printf "trace: %d events, %d persists\n" (Memsim.Trace.length trace)
        (Memsim.Trace.persists trace);
      List.iter
        (fun mode ->
          let cfg = P.Config.make ~record_graph:true mode in
          let engine = P.Engine.create cfg in
          P.Engine.observe_trace engine trace;
          let graph = Option.get (P.Engine.graph engine) in
          let cuts, bad = count_violations records graph in
          Printf.printf
            "%-6s critical path = %d, %3d legal crash states, %d expose an \
             unpublished record\n"
            (P.Config.mode_name mode)
            (P.Engine.critical_path engine)
            cuts bad;
          let safe = with_barrier || mode = P.Config.Strict in
          if safe <> (bad = 0) then begin
            Printf.eprintf "quickstart: %s %s barrier: %d torn records exposed\n"
              (P.Config.mode_name mode)
              (if with_barrier then "with" else "without")
              bad;
            ok := false
          end)
        P.Config.all_modes;
      print_newline ())
    [ true; false ];
  print_endline
    "strict persistency never exposes a torn record (program order persists);\n\
     epoch and strand persistency are safe only with the barrier — exactly\n\
     the annotation burden the paper trades for persist concurrency";
  if not !ok then exit 1
