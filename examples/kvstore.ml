(* A persistent key-value store with checksummed slots.

   Each slot is three words: key, value, checksum(key, value).  An
   update writes key and value, then — after a persist barrier — the
   checksum.  A crash can tear an in-flight update (a newer value
   durable, its checksum not), but the checksum detects it: recovery
   discards torn slots.  The safety invariant is the one the barrier
   buys: a checksum never becomes durable before the value it
   certifies.  If a slot's checksum word certifies the slot's update
   i, its value word holds update i (the slot is intact) or a later
   one (torn, discarded), never an older update or none.  Each slot's
   updates are numbered in the order they take its lock.

   Updates to different keys are logically independent.  Under epoch
   persistency they still serialize through each thread's program
   order.  Strand persistency puts every update on its own strand and
   uses the paper's idiom for minimal ordering (Section 5.3): the
   strand begins by {e reading} the slot it must be ordered after,
   which creates a dependence through strong persist atomicity that the
   following barrier then enforces.  Cross-key updates persist
   concurrently; the critical path collapses to the hottest key's
   chain.

   Exits 1 if a sampled crash state holds a checksum whose value is not
   durable, or if strand persistency does not shorten the critical path
   of spread updates.

   Run with: dune exec examples/kvstore.exe *)

module M = Memsim.Machine
module P = Persistency

let slots = 16
let updates_per_thread = 64
let threads = 2

let checksum key value =
  Int64.logxor 0x5deece66dL (Int64.logxor key (Int64.mul value 31L))

let run_store mode ~hot =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy:(M.Random 13) ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let table = Memsim.Memory.alloc memory Memsim.Addr.Persistent (24 * slots) in
  let locks = Array.init slots (fun _ -> M.mutex machine) in
  (* per slot, its updates' (key, value) pairs, newest first *)
  let history = Array.make slots [] in
  let strand = mode = P.Config.Strand in
  for t = 0 to threads - 1 do
    ignore
      (M.spawn machine (fun () ->
           for i = 0 to updates_per_thread - 1 do
             let n = (t * updates_per_thread) + i in
             (* [hot]: all updates hit one key; otherwise spread *)
             let k = if hot then 0 else (n * 7) mod slots in
             let key = Int64.of_int (k + 1) in
             let value = Int64.of_int ((n * 100) + k) in
             M.label "update";
             M.lock locks.(k);
             history.(k) <- (key, value) :: history.(k);
             let slot = table + (24 * k) in
             if strand then begin
               (* begin a strand; order it after this slot's previous
                  update by reading the slot's checksum word *)
               M.new_strand ();
               ignore (M.load (slot + 16));
               M.persist_barrier ()
             end;
             M.store slot key;
             M.store (slot + 8) value;
             M.persist_barrier ();
             M.store (slot + 16) (checksum key value);
             M.unlock locks.(k)
           done))
  done;
  M.run machine;
  (table, Array.map (fun h -> Array.of_list (List.rev h)) history, trace)

let check_recovery table history graph =
  let capacity = table + (24 * slots) in
  let torn = ref 0 and total = ref 0 in
  let check image =
    incr total;
    let rec go k =
      if k = slots then Ok ()
      else begin
        let slot = table + (24 * k) in
        let key = Bytes.get_int64_le image slot in
        let value = Bytes.get_int64_le image (slot + 8) in
        let sum = Bytes.get_int64_le image (slot + 16) in
        (* the number of the slot's first update satisfying [p] *)
        let update p =
          let rec find i =
            if i = Array.length history.(k) then None
            else if p history.(k).(i) then Some i
            else find (i + 1)
          in
          find 0
        in
        let held = update (fun (k', v') -> k' = key && v' = value) in
        let certified = update (fun (k', v') -> checksum k' v' = sum) in
        match certified with
        | None when Int64.equal sum 0L -> go (k + 1)
        | None ->
          Error (Printf.sprintf "slot %d: checksum certifies no update" k)
        | Some i -> (
          match held with
          | Some j when j >= i ->
            (* a later value than the checksum's: a torn update,
               detected and discarded by recovery *)
            if j > i then incr torn;
            go (k + 1)
          | _ ->
            Error
              (Printf.sprintf
                 "slot %d: checksum of update %d durable before its value \
                  (value word holds %s)"
                 k i
                 (match held with
                 | Some j -> Printf.sprintf "update %d" j
                 | None -> "no update")))
      end
    in
    go 0
  in
  let result =
    Recovery.check ~graph ~capacity
      ~strategy:(Recovery.Sampled { samples = 300; seed = 17 })
      check
    |> Result.map_error Recovery.render_failure
  in
  (result, !torn, !total)

let () =
  let ok = ref true in
  List.iter
    (fun hot ->
      Printf.printf "--- %s ---\n"
        (if hot then "all updates to one hot key"
         else "updates spread over 16 keys");
      let paths =
        List.map
          (fun mode ->
            let table, history, trace = run_store mode ~hot in
            let cfg = P.Config.make ~record_graph:true mode in
            let engine = P.Engine.create cfg in
            P.Engine.observe_trace engine trace;
            let graph = Option.get (P.Engine.graph engine) in
            Printf.printf "%-6s  critical path = %3d (%.2f per update)\n"
              (P.Config.mode_name mode)
              (P.Engine.critical_path engine)
              (P.Engine.cp_per_label engine "update");
            (match check_recovery table history graph with
            | Ok _, torn, total ->
              Printf.printf
                "        recovery: no lying checksum in %d crash states (%d torn slots detected & discarded)\n"
                total torn
            | Error msg, _, _ ->
              Printf.printf "        RECOVERY VIOLATION: %s\n" msg;
              ok := false);
            P.Engine.critical_path engine)
          [ P.Config.Epoch; P.Config.Strand ]
      in
      match paths with
      | [ epoch; strand ] when (not hot) && strand >= epoch ->
        prerr_endline
          "kvstore: strand persistency did not shorten the spread-key critical path";
        ok := false
      | _ -> ())
    [ false; true ];
  if not !ok then exit 1
