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

(* Barrier and new-strand call sites, named for where they sit in
   Algorithm 1's inserts.  CWL and Fang share one placement: lines 3, 5,
   6, 8, 11 and 13 of INSERTCWL; lines 5 and 11 are the ones whose
   removal "allows race", and line 8 (data -> head; data -> seal for
   Fang) carries recovery.  2LC brackets each of its two locks with
   barriers of its own, and shares [strand] and [data_head] (line 27). *)
let before_lock = M.site "before-lock"
let after_lock = M.site "after-lock"
let strand = M.site "strand"
let data_head = M.site "data-head"
let after_head = M.site "after-head"
let after_unlock = M.site "after-unlock"
let before_reserve = M.site "before-reserve"
let after_reserve = M.site "after-reserve"
let before_reserve_unlock = M.site "before-reserve-unlock"
let after_reserve_unlock = M.site "after-reserve-unlock"
let copy_done = M.site "copy-done"
let after_update = M.site "after-update"
let before_update_unlock = M.site "before-update-unlock"
let after_update_unlock = M.site "after-update-unlock"

let cwl_epoch = [ before_lock; after_lock; data_head; after_head; after_unlock ]

let tlc_brackets =
  [ before_reserve; after_reserve; before_reserve_unlock; after_reserve_unlock;
    after_update; before_update_unlock; after_update_unlock ]

(* The annotations as site sets.  [Epoch] is the conservative
   non-racing placement, which brackets every lock operation; [Racing]
   drops the brackets whose removal allows races (CWL's lines 5 and 11,
   all of 2LC's); [Strand] adds the new-strand to CWL's epoch placement
   and to 2LC's racing one; [Buggy_epoch] drops line 8 from CWL and
   every barrier from 2LC. *)
let sites = function
  | Unannotated -> []
  | Epoch -> (copy_done :: cwl_epoch) @ tlc_brackets
  | Racing -> [ before_lock; data_head; after_unlock; copy_done ]
  | Strand -> strand :: copy_done :: cwl_epoch
  | Buggy_epoch -> [ before_lock; after_lock; after_head; after_unlock ]

let barrier on s = if List.memq s on then M.persist_barrier_at s
let new_strand on s = if List.memq s on then M.new_strand_at s

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

(* Copy While Locked: Algorithm 1, INSERTCWL.  [reserve] returns the
   insert's byte position in the log and [publish pos off] writes what
   makes the copy at [off] valid: CWL's head pointer, or, for Fang et
   al.'s SCM log, the record's trailing seal word — its one-based commit
   index, persisted after the payload (recovery scans records while the
   seal matches the position).  Fang's barrier placement mirrors CWL's;
   the data→seal barrier (line 8's analogue) carries recovery. *)
let insert_locked p on layout queue_lock commits ~reserve ~publish ~tid ~seq =
  let entry = encode_entry p ~tid ~seq in
  M.label "insert";
  barrier on before_lock;
  M.lock queue_lock;
  barrier on after_lock;
  new_strand on strand;
  Memsim.Vec.push commits tid;
  let pos = reserve () in
  let off = pos mod layout.data_bytes in
  M.store_bytes (layout.data_addr + off) entry;
  barrier on data_head;
  publish pos off;
  barrier on after_head;
  M.unlock queue_lock;
  barrier on after_unlock

(* Two-Lock Concurrent: Algorithm 1, INSERT2LC.  Two barriers carry the
   recovery obligation under every relaxed annotation:

   - line 27 ([data_head]), before the head update, inside the
     oldest-check;
   - [copy_done], between the copy and the update-lock acquisition.
     The paper's listing omits it, but without it the annotation is
     insufficient: the head is often published by a *different* thread
     (the insert list batches completions), and under epoch persistency
     nothing connects that thread's head persist to this thread's data
     persists — the copy and the done-flag store sit in one epoch, so
     the conflict edges through the insert list start only at the done
     flag.  Our failure-injection harness exhibits the resulting hole;
     the extra barrier closes it without serializing copies.

   The conservative non-racing [Epoch] placement additionally brackets
   every lock acquire and release with barriers (Section 5.2's recipe
   for avoiding persist-epoch races). *)
let insert_tlc p on layout ~headv ~reserve_lock ~update_lock ~ilist commits
    ~tid ~seq =
  let entry = encode_entry p ~tid ~seq in
  M.label "insert";
  barrier on before_reserve;
  M.lock reserve_lock;
  barrier on after_reserve;
  let start = Int64.to_int (M.load headv) in
  M.store headv (Int64.of_int (start + layout.slot));
  let ticket = Insert_list.append ilist ~end_offset:(start + layout.slot) in
  Memsim.Vec.push commits tid;
  barrier on before_reserve_unlock;
  M.unlock reserve_lock;
  barrier on after_reserve_unlock;
  new_strand on strand;
  let off = start mod layout.data_bytes in
  M.store_bytes (layout.data_addr + off) entry;
  barrier on copy_done;
  M.lock update_lock;
  barrier on after_update;
  let oldest, new_head = Insert_list.remove ilist ticket in
  if oldest then begin
    barrier on data_head;
    M.store layout.head_addr (Int64.of_int new_head)
  end;
  barrier on before_update_unlock;
  M.unlock update_lock;
  barrier on after_update_unlock

let run ?sites:on p ~sink =
  validate p;
  let on = match on with Some on -> on | None -> sites p.annotation in
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
  let insert =
    match p.design with
    | Cwl ->
      insert_locked p on layout (M.mutex machine) commits
        ~reserve:(fun () -> Int64.to_int (M.load head_addr))
        ~publish:(fun pos _ -> M.store head_addr (Int64.of_int (pos + slot)))
    | Fang ->
      let queue_lock = M.mutex machine in
      let vindex = Memsim.Memory.alloc memory Memsim.Addr.Volatile 8 in
      insert_locked p on layout queue_lock commits
        ~reserve:(fun () ->
          let idx = Int64.to_int (M.load vindex) in
          M.store vindex (Int64.of_int (idx + 1));
          idx * slot)
        ~publish:(fun pos off ->
          M.store (data_addr + off + slot - 8) (Int64.of_int ((pos / slot) + 1)))
    | Tlc ->
      let reserve_lock = M.mutex machine in
      let update_lock = M.mutex machine in
      let ilist = Insert_list.create machine ~slots:(2 * p.threads) in
      let headv = Memsim.Memory.alloc memory Memsim.Addr.Volatile 8 in
      insert_tlc p on layout ~headv ~reserve_lock ~update_lock ~ilist commits
  in
  for tid = 0 to p.threads - 1 do
    ignore
      (M.spawn machine (fun () ->
           for seq = 0 to p.inserts_per_thread - 1 do
             insert ~tid ~seq
           done))
  done;
  M.run machine;
  Om.incr m_runs;
  Om.add m_inserts (p.threads * p.inserts_per_thread);
  Om.add m_events (M.event_count machine);
  Om.observe_max m_threads (float_of_int p.threads);
  { layout;
    inserts = p.threads * p.inserts_per_thread;
    events = M.event_count machine;
    insert_order = Memsim.Vec.to_list commits }
