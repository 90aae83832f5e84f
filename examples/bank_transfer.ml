(* Atomic multi-word updates: bank transfers under failure injection.

   A transfer debits one persistent account and credits another — two
   8-byte writes that must be all-or-nothing across crashes, the
   textbook motivation for durable transactions (Mnemosyne/NV-heaps in
   the paper's related work).

   Run 1 uses the redo-log transaction layer (epoch persistency): in
   every sampled crash state, recovery replays the committed log and
   the total balance is conserved.

   Run 2 performs the same writes directly with a single persist
   barrier misplaced between them: failure injection finds a crash
   state where money is created or destroyed.

   Run with: dune exec examples/bank_transfer.exe *)

module M = Memsim.Machine
module P = Persistency

let accounts = 8
let initial = 1000L
let transfers_per_thread = 20
let threads = 2

let total_expected = Int64.mul (Int64.of_int accounts) initial

let setup () =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy:(M.Random 23) ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let table = Memsim.Memory.alloc memory Memsim.Addr.Persistent (8 * accounts) in
  (memory, machine, trace, table)

let transfer_plan tid i =
  let n = (tid * transfers_per_thread) + i in
  let src = n * 3 mod accounts in
  let dst = (src + 1 + (n mod (accounts - 1))) mod accounts in
  let amount = Int64.of_int (1 + (n mod 50)) in
  (src, dst, amount)

let sum_accounts image table =
  let rec go k acc =
    if k = accounts then acc
    else go (k + 1) (Int64.add acc (Bytes.get_int64_le image (table + (8 * k))))
  in
  go 0 0L

let with_txns () =
  let memory, machine, trace, table = setup () in
  let mgr = Txn.create machine ~log_capacity_bytes:8192 () in
  (* initial balances are also committed transactionally *)
  ignore
    (M.spawn machine (fun () ->
         Txn.atomically mgr (fun t ->
             for k = 0 to accounts - 1 do
               Txn.write t (table + (8 * k)) initial
             done)));
  M.run machine;
  for tid = 0 to threads - 1 do
    ignore
      (M.spawn machine (fun () ->
           for i = 0 to transfers_per_thread - 1 do
             let src, dst, amount = transfer_plan tid i in
             Txn.atomically mgr (fun t ->
                 let s = Txn.read t (table + (8 * src)) in
                 let d = Txn.read t (table + (8 * dst)) in
                 Txn.write t (table + (8 * src)) (Int64.sub s amount);
                 Txn.write t (table + (8 * dst)) (Int64.add d amount))
           done))
  done;
  M.run machine;
  ignore memory;
  (mgr, trace, table)

let without_txns () =
  let memory, machine, trace, table = setup () in
  let lock = M.mutex machine in
  ignore
    (M.spawn machine (fun () ->
         for k = 0 to accounts - 1 do
           M.store (table + (8 * k)) initial
         done;
         M.persist_barrier ()));
  M.run machine;
  for tid = 0 to threads - 1 do
    ignore
      (M.spawn machine (fun () ->
           for i = 0 to transfers_per_thread - 1 do
             let src, dst, amount = transfer_plan tid i in
             M.lock lock;
             let s = M.load (table + (8 * src)) in
             M.store (table + (8 * src)) (Int64.sub s amount);
             (* the misplaced barrier: debit can persist without the
                credit *)
             M.persist_barrier ();
             let d = M.load (table + (8 * dst)) in
             M.store (table + (8 * dst)) (Int64.add d amount);
             M.unlock lock
           done))
  done;
  M.run machine;
  ignore memory;
  (trace, table)

let analyze trace =
  let cfg = P.Config.make ~record_graph:true P.Config.Epoch in
  let engine = P.Engine.create cfg in
  P.Engine.observe_trace engine trace;
  (engine, Option.get (P.Engine.graph engine))

let () =
  (* transactional run *)
  let mgr, trace, table = with_txns () in
  let engine, graph = analyze trace in
  let capacity = max (snd (Txn.log_range mgr)) (table + (8 * accounts)) in
  Printf.printf
    "transactional: %d transfers committed, critical path %d (%.2f/txn)\n"
    (Txn.committed mgr)
    (P.Engine.critical_path engine)
    (P.Engine.cp_per_label engine "txn");
  let check image =
    Txn.recover_image mgr image;
    let total = sum_accounts image table in
    (* crash before the very first (initialization) commit: empty bank *)
    if Int64.equal total 0L || Int64.equal total total_expected then Ok ()
    else
      Error
        (Printf.sprintf "balance corrupted: %Ld (expected %Ld)" total
           total_expected)
  in
  (match
     Recovery.check_invariant ~graph ~capacity
       ~strategy:(Recovery.Sampled { samples = 400; seed = 31 })
       check
   with
  | Ok () ->
    print_endline
      "  recovery: total balance conserved in every sampled crash state"
  | Error msg -> Printf.printf "  RECOVERY VIOLATION: %s\n" msg);
  (* direct-write run *)
  let trace2, table2 = without_txns () in
  let _, graph2 = analyze trace2 in
  let check2 image =
    let total = sum_accounts image table2 in
    if Int64.equal total 0L || Int64.equal total total_expected then Ok ()
    else
      Error
        (Printf.sprintf "balance corrupted: %Ld (expected %Ld)" total
           total_expected)
  in
  match
    Recovery.check_invariant ~graph:graph2
      ~capacity:(table2 + (8 * accounts))
      ~strategy:(Recovery.Sampled { samples = 400; seed = 31 })
      check2
  with
  | Ok () ->
    print_endline
      "direct writes: (unexpectedly survived — try more samples)"
  | Error msg ->
    Printf.printf
      "direct writes without transactions: %s\n  — the torn transfer the \
       transaction layer prevents\n"
      msg
