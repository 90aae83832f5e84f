module M = Memsim.Machine
module Om = Obs.Metrics

let m_runs = Om.counter Om.default "workload.queue.runs"
let m_inserts = Om.counter Om.default "workload.queue.inserts"
let m_events = Om.counter Om.default "workload.queue.events"
let m_threads = Om.gauge_max Om.default "workload.queue.threads_max"

type design =
  | Cwl
  | Tlc
  | Fang

type annotation =
  | Unannotated
  | Epoch
  | Racing
  | Strand
  | Buggy_epoch

type params = {
  design : design;
  annotation : annotation;
  threads : int;
  inserts_per_thread : int;
  entry_size : int;
  capacity_entries : int;
  seed : int;
  policy : M.policy;
  machine : M.model;
  persistence : M.persistence;
  barrier : M.barrier_impl;
}

type layout = {
  head_addr : int;
  data_addr : int;
  data_bytes : int;
  slot : int;
}

type result = {
  layout : layout;
  inserts : int;
  events : int;
  insert_order : int list;
}

let design_name = function
  | Cwl -> "copy-while-locked"
  | Tlc -> "two-lock-concurrent"
  | Fang -> "fang-scm-log"

let annotation_name = function
  | Unannotated -> "unannotated"
  | Epoch -> "epoch"
  | Racing -> "racing-epochs"
  | Strand -> "strand"
  | Buggy_epoch -> "buggy-epoch"

(* Persist-barrier placement per Algorithm 1.  Line numbers refer to
   the paper's pseudo-code; lines 5 and 11 are the ones whose removal
   "allows race".  [Buggy_epoch] drops line 8 — the data→head ordering
   recovery actually needs — to exercise the failure-injection tests. *)
type cwl_barriers = {
  line3 : bool;  (* before lock *)
  line5 : bool;  (* after lock *)
  line6 : bool;  (* NewStrand *)
  line8 : bool;  (* between data copy and head update *)
  line11 : bool;  (* after head update *)
  line13 : bool;  (* after unlock *)
}

let cwl_barriers = function
  | Unannotated ->
    { line3 = false; line5 = false; line6 = false; line8 = false;
      line11 = false; line13 = false }
  | Epoch ->
    { line3 = true; line5 = true; line6 = false; line8 = true;
      line11 = true; line13 = true }
  | Racing ->
    { line3 = true; line5 = false; line6 = false; line8 = true;
      line11 = false; line13 = true }
  | Strand ->
    { line3 = true; line5 = true; line6 = true; line8 = true;
      line11 = true; line13 = true }
  | Buggy_epoch ->
    { line3 = true; line5 = true; line6 = false; line8 = false;
      line11 = true; line13 = true }

let barrier_if cond = if cond then M.persist_barrier ()

let validate p =
  if p.threads < 1 then invalid_arg "Queue: threads must be >= 1";
  if p.inserts_per_thread < 1 then
    invalid_arg "Queue: inserts_per_thread must be >= 1";
  if p.entry_size < Entry.min_size then
    invalid_arg
      (Printf.sprintf "Queue: entry_size must be >= %d" Entry.min_size);
  if p.capacity_entries < p.threads then
    invalid_arg "Queue: capacity_entries must be >= threads"

let encode_entry p ~tid ~seq =
  let payload = Entry.make ~seed:p.seed ~tid ~seq ~size:p.entry_size in
  let slot = Entry.slot_size ~entry_size:p.entry_size in
  let b = Bytes.make slot '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int p.entry_size);
  Bytes.blit payload 0 b 8 p.entry_size;
  b

(* Fang et al.'s SCM log: like CWL, but instead of a head pointer each
   record carries a trailing seal word — its one-based commit index —
   persisted after the payload.  Recovery scans records while the seal
   matches the position.  The barrier placement mirrors CWL's; the
   data→seal barrier (line 8's analogue) carries recovery correctness. *)
let insert_fang p layout queue_lock ~vindex commits ~tid ~seq =
  let bars = cwl_barriers p.annotation in
  let entry = encode_entry p ~tid ~seq in
  M.label "insert";
  barrier_if bars.line3;
  M.lock queue_lock;
  barrier_if bars.line5;
  if bars.line6 then M.new_strand ();
  Memsim.Vec.push commits tid;
  let idx = Int64.to_int (M.load vindex) in
  M.store vindex (Int64.of_int (idx + 1));
  let off = idx * layout.slot mod layout.data_bytes in
  M.store_bytes (layout.data_addr + off) entry;
  barrier_if bars.line8;
  M.store (layout.data_addr + off + layout.slot - 8) (Int64.of_int (idx + 1));
  barrier_if bars.line11;
  M.unlock queue_lock;
  barrier_if bars.line13

(* Copy While Locked: Algorithm 1, INSERTCWL. *)
let insert_cwl p layout queue_lock commits ~tid ~seq =
  let bars = cwl_barriers p.annotation in
  let entry = encode_entry p ~tid ~seq in
  M.label "insert";
  barrier_if bars.line3;
  M.lock queue_lock;
  barrier_if bars.line5;
  if bars.line6 then M.new_strand ();
  Memsim.Vec.push commits tid;
  let head = Int64.to_int (M.load layout.head_addr) in
  let off = head mod layout.data_bytes in
  M.store_bytes (layout.data_addr + off) entry;
  barrier_if bars.line8;
  M.store layout.head_addr (Int64.of_int (head + layout.slot));
  barrier_if bars.line11;
  M.unlock queue_lock;
  barrier_if bars.line13

(* Two-Lock Concurrent: Algorithm 1, INSERT2LC.  Two barriers carry the
   recovery obligation under every relaxed annotation:

   - line 27, before the head update, inside the oldest-check;
   - one between the copy and the update-lock acquisition.  The paper's
     listing omits it, but without it the annotation is insufficient:
     the head is often published by a *different* thread (the insert
     list batches completions), and under epoch persistency nothing
     connects that thread's head persist to this thread's data persists
     — the copy and the done-flag store sit in one epoch, so the
     conflict edges through the insert list start only at the done
     flag.  Our failure-injection harness exhibits the resulting hole;
     the extra barrier closes it without serializing copies.

   The conservative non-racing [Epoch] placement additionally brackets
   every lock acquire and release with barriers (Section 5.2's recipe
   for avoiding persist-epoch races).  [Buggy_epoch] drops both
   recovery-critical barriers. *)
let insert_tlc p layout ~headv ~reserve_lock ~update_lock ~ilist commits
    ~tid ~seq =
  let entry = encode_entry p ~tid ~seq in
  let bracket = p.annotation = Epoch in
  let relaxed =
    match p.annotation with
    | Epoch | Racing | Strand -> true
    | Unannotated | Buggy_epoch -> false
  in
  M.label "insert";
  barrier_if bracket;
  M.lock reserve_lock;
  barrier_if bracket;
  let start = Int64.to_int (M.load headv) in
  M.store headv (Int64.of_int (start + layout.slot));
  let ticket = Insert_list.append ilist ~end_offset:(start + layout.slot) in
  Memsim.Vec.push commits tid;
  barrier_if bracket;
  M.unlock reserve_lock;
  barrier_if bracket;
  (match p.annotation with
  | Strand -> M.new_strand ()
  | Unannotated | Epoch | Racing | Buggy_epoch -> ());
  let off = start mod layout.data_bytes in
  M.store_bytes (layout.data_addr + off) entry;
  barrier_if relaxed;
  M.lock update_lock;
  barrier_if bracket;
  let oldest, new_head = Insert_list.remove ilist ticket in
  if oldest then begin
    barrier_if relaxed;
    M.store layout.head_addr (Int64.of_int new_head)
  end;
  barrier_if bracket;
  M.unlock update_lock;
  barrier_if bracket

let run p ~sink =
  validate p;
  let slot =
    Entry.slot_size ~entry_size:p.entry_size
    + (match p.design with Fang -> 8 | Cwl | Tlc -> 0)
  in
  let data_bytes = slot * p.capacity_entries in
  let memory =
    Memsim.Memory.create
      ~persistent_capacity:(data_bytes + 64)
      ~volatile_capacity:(4096 + (32 * p.threads))
      ()
  in
  let machine =
    M.create ~policy:p.policy ~model:p.machine ~persistence:p.persistence
      ~barrier:p.barrier ~memory ()
  in
  M.set_sink machine sink;
  let head_addr = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let data_addr = Memsim.Memory.alloc memory Memsim.Addr.Persistent data_bytes in
  let layout = { head_addr; data_addr; data_bytes; slot } in
  let commits = Memsim.Vec.create () in
  (match p.design with
  | Cwl ->
    let queue_lock = M.mutex machine in
    for tid = 0 to p.threads - 1 do
      ignore
        (M.spawn machine (fun () ->
             for seq = 0 to p.inserts_per_thread - 1 do
               insert_cwl p layout queue_lock commits ~tid ~seq
             done))
    done
  | Fang ->
    let queue_lock = M.mutex machine in
    let vindex = Memsim.Memory.alloc memory Memsim.Addr.Volatile 8 in
    for tid = 0 to p.threads - 1 do
      ignore
        (M.spawn machine (fun () ->
             for seq = 0 to p.inserts_per_thread - 1 do
               insert_fang p layout queue_lock ~vindex commits ~tid ~seq
             done))
    done
  | Tlc ->
    let reserve_lock = M.mutex machine in
    let update_lock = M.mutex machine in
    let ilist = Insert_list.create machine ~slots:(2 * p.threads) in
    let headv = Memsim.Memory.alloc memory Memsim.Addr.Volatile 8 in
    for tid = 0 to p.threads - 1 do
      ignore
        (M.spawn machine (fun () ->
             for seq = 0 to p.inserts_per_thread - 1 do
               insert_tlc p layout ~headv ~reserve_lock ~update_lock ~ilist
                 commits ~tid ~seq
             done))
    done);
  M.run machine;
  Om.incr m_runs;
  Om.add m_inserts (p.threads * p.inserts_per_thread);
  Om.add m_events (M.event_count machine);
  Om.observe_max m_threads (float_of_int p.threads);
  { layout;
    inserts = p.threads * p.inserts_per_thread;
    events = M.event_count machine;
    insert_order = Memsim.Vec.to_list commits }
