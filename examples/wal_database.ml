(* Write-ahead logging — the workload the paper's introduction motivates
   ("several workloads require high-performance persistent queues, such
   as write ahead logs in databases").

   Each transaction appends a redo record (txid, page, new value) to a
   persistent log, publishes the log head, and only then updates the
   page in place.  Recovery replays the log below the recovered head:
   the database state must equal replaying some prefix of committed
   transactions, regardless of where execution crashed.

   The example runs the same program under epoch and strand persistency,
   prints both persist critical paths, and samples 400 crash states for
   each.  Strand persistency puts each transaction on its own strand,
   yet the two critical paths are equal (26 for 24 transactions): every
   commit stores the one log-head word, and each strand begins by
   reading it to find where to append.  Strong persist atomicity orders
   the persists to that word, so the commits form one chain under
   either model — 24 head persists, plus the first record before them
   and the last in-place update after.  A record append already
   overlaps the previous commit under epoch persistency (the load and
   the record stores share an epoch), so strands have nothing left to
   relax.  The shared commit point is what recovery reads; without it
   (a slot per transaction, no head) the same loop measures epoch 13
   and strand 2, but nothing marks which records committed.

   Exits 1 if a sampled crash state fails recovery or the two critical
   paths differ.

   Run with: dune exec examples/wal_database.exe *)

module M = Memsim.Machine
module P = Persistency

let pages = 8
let txns_per_thread = 12
let threads = 2

type db = {
  log_head : int;  (* persistent: bytes of valid log *)
  log : int;  (* persistent: records of 3 words: txid, page, value *)
  table : int;  (* persistent: pages *)
  lock : M.lock;
}

let record_bytes = 24

let run_wal mode =
  let memory =
    Memsim.Memory.create ~persistent_capacity:(1 lsl 16) ()
  in
  let machine = M.create ~policy:(M.Random 5) ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let log_head = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let log =
    Memsim.Memory.alloc memory Memsim.Addr.Persistent
      (record_bytes * threads * txns_per_thread)
  in
  let table = Memsim.Memory.alloc memory Memsim.Addr.Persistent (8 * pages) in
  let db = { log_head; log; table; lock = M.mutex machine } in
  let strand = mode = P.Config.Strand in
  for t = 0 to threads - 1 do
    ignore
      (M.spawn machine (fun () ->
           for i = 0 to txns_per_thread - 1 do
             let txid = (t * txns_per_thread) + i + 1 in
             let page = (txid * 5) mod pages in
             let value = Int64.of_int ((txid * 1000) + page) in
             M.label "txn";
             M.lock db.lock;
             if strand then M.new_strand ();
             (* append redo record *)
             let head = Int64.to_int (M.load db.log_head) in
             let rec_addr = db.log + head in
             M.store rec_addr (Int64.of_int txid);
             M.store (rec_addr + 8) (Int64.of_int page);
             M.store (rec_addr + 16) value;
             M.persist_barrier ();
             (* commit: publish the log head *)
             M.store db.log_head (Int64.of_int (head + record_bytes));
             M.persist_barrier ();
             (* update in place, ordered after commit *)
             M.store (db.table + (8 * page)) value;
             M.unlock db.lock
           done))
  done;
  M.run machine;
  (db, trace)

(* Recovery: replay committed records over the initial (zero) table and
   check the recovered table matches, for every page either the replay
   result or a later in-place update that is itself committed. *)
let check_recovery db graph =
  let capacity = db.table + (8 * pages) in
  let check image =
    let read addr = Bytes.get_int64_le image addr in
    let head = Int64.to_int (read db.log_head) in
    if head mod record_bytes <> 0 then
      Error (Printf.sprintf "log head %d not record-aligned" head)
    else begin
      let replay = Array.make pages 0L in
      let rec go off =
        if off >= head then Ok ()
        else begin
          let txid = Int64.to_int (read (db.log + off)) in
          let page = Int64.to_int (read (db.log + off + 8)) in
          let value = read (db.log + off + 16) in
          if txid = 0 then Error (Printf.sprintf "hole in log at %d" off)
          else if page < 0 || page >= pages then
            Error (Printf.sprintf "corrupt page id %d in log" page)
          else if
            (* record content must match its generating transaction *)
            not (Int64.equal value (Int64.of_int ((txid * 1000) + page)))
          then Error (Printf.sprintf "corrupt record for txn %d" txid)
          else begin
            replay.(page) <- value;
            go (off + record_bytes)
          end
        end
      in
      match go 0 with
      | Error _ as e -> e
      | Ok () ->
        (* each table page holds zero, the replay value, or any logged
           value for that page (pages are updated after commit, so an
           in-place value must appear in the recovered log) *)
        let rec pages_ok p =
          if p = pages then Ok ()
          else begin
            let v = read (db.table + (8 * p)) in
            let logged = ref (Int64.equal v 0L || Int64.equal v replay.(p)) in
            let off = ref 0 in
            while (not !logged) && !off < head do
              if
                Int64.to_int (read (db.log + !off + 8)) = p
                && Int64.equal (read (db.log + !off + 16)) v
              then logged := true;
              off := !off + record_bytes
            done;
            if !logged then pages_ok (p + 1)
            else
              Error
                (Printf.sprintf "page %d holds uncommitted value %Ld" p v)
          end
      in
      pages_ok 0
    end
  in
  Recovery.check ~graph ~capacity
    ~strategy:(Recovery.Sampled { samples = 400; seed = 9 })
    check
  |> Result.map_error Recovery.render_failure

let () =
  let ok = ref true in
  let paths =
    List.map
      (fun mode ->
        let db, trace = run_wal mode in
        let cfg = P.Config.make ~record_graph:true mode in
        let engine = P.Engine.create cfg in
        P.Engine.observe_trace engine trace;
        let graph = Option.get (P.Engine.graph engine) in
        Printf.printf
          "%-6s  %3d txns  critical path = %3d (%.2f per txn)  atomic persists = %d\n"
          (P.Config.mode_name mode)
          (threads * txns_per_thread)
          (P.Engine.critical_path engine)
          (P.Engine.cp_per_label engine "txn")
          (P.Engine.persist_ops engine);
        (match check_recovery db graph with
        | Ok _ ->
          print_endline "        recovery: log replay consistent in every sampled crash state"
        | Error msg ->
          Printf.printf "        RECOVERY VIOLATION: %s\n" msg;
          ok := false);
        P.Engine.critical_path engine)
      [ P.Config.Epoch; P.Config.Strand ]
  in
  (match paths with
  | [ epoch; strand ] when epoch <> strand ->
    prerr_endline "wal_database: epoch and strand critical paths differ";
    ok := false
  | _ -> ());
  if not !ok then exit 1
