module Event = Memsim.Event
module Vec = Memsim.Vec

(* Observability instruments (lib/obs).  Registered once at module
   initialization; every update is a no-op while the default registry
   is disabled.  Counters aggregate across engine instances — a sweep's
   worker domains all feed the same instruments. *)
module M = Obs.Metrics

let m_events = M.counter M.default "engine.events"
let m_persist_events = M.counter M.default "engine.persist_events"
let m_persist_ops = M.counter M.default "engine.persist_ops"
let m_coalesced = M.counter M.default "engine.coalesced"
let m_barriers = M.counter M.default "engine.persist_barriers"
let m_strands = M.counter M.default "engine.new_strands"
let m_labels = M.counter M.default "engine.labels"
let m_flushes = M.counter M.default "engine.flushes"
let m_fences = M.counter M.default "engine.fences"
let m_pdrains = M.counter M.default "engine.pdrains"
let m_order_edges = M.counter M.default "engine.order_edges"
let m_cp = M.gauge_max M.default "engine.critical_path_max"
let m_events_rate = M.gauge_max M.default "engine.events_per_sec"
let m_level = M.histogram M.default "engine.persist_level"
let m_coalesce_run = M.histogram M.default "engine.coalesce_run_length"

let frontier_buckets = M.pow2_buckets 9 (* 1 .. 256 *)

let m_frontier_before =
  M.histogram M.default ~buckets:frontier_buckets
    "engine.frontier_before_reduce"

let m_frontier_after =
  M.histogram M.default ~buckets:frontier_buckets "engine.frontier_after_reduce"

type tstate = {
  mutable barrier : Level.t;  (* everything before the last barrier *)
  mutable acc : Level.t;  (* accumulated in the current epoch *)
  mutable ld_view : Level.t;
      (* strict/TSO: what a load is ordered after (earlier loads, RMWs
         and fences only — stores may drift past loads under TSO) *)
  mutable flush_acc : Level.t;
      (* Px86: persists captured by clflushopt/clwb since the last
         fence; a fence commits them into the barrier view *)
  mutable barrier_f : Iset.t;
  mutable acc_f : Iset.t;
  mutable ld_view_f : Iset.t;
  mutable flush_f : Iset.t;
}

type bstate = {
  mutable store_l : Level.t;
  mutable load_l : Level.t;
  mutable store_f : Iset.t;
  mutable load_f : Iset.t;
}

type open_persist = {
  mutable node : int;
  mutable lv : Level.t;  (* the persist's level, provenance [node] *)
  mutable merged : int;  (* persist events absorbed, incl. the first *)
}

type t = {
  cfg : Config.t;
  mutable threads : tstate array;  (* by tid; [no_thread] until first use *)
  blocks : bstate Itbl.t;  (* keyed by tracked block index *)
  opens : open_persist Itbl.t;  (* keyed by atomic block index *)
  graph : Persist_graph.t option;
  persist_nodes : int Vec.t;  (* persist event index -> node id *)
  mutable closed : Bytes.t;
      (* bitmap over node ids: nodes some other persist depends on, no
         further coalescing *)
  labels : (string, int ref) Hashtbl.t;
  mutable durable_f : Iset.t;
      (* Px86 durable frontier: persists whose flushed lines are known
         durable (fence-committed under [Px86_sync], drained under
         [Px86_buffered]).  Every later persist is cut-ordered after
         them via order-only edges — levels are never affected. *)
  pend : Iset.t Queue.t Itbl.t;
      (* Px86_buffered: per cache line (8-byte base), the persist
         frontiers captured by flushes still sitting in the machine's
         persistence buffer; [Pdrain] pops the front (the machine's
         buffer is per-line FIFO, so fronts stay aligned) *)
  mutable next_node : int;  (* node counter when no graph is recorded *)
  mutable max_level : int;
  mutable persist_events : int;
  mutable coalesced : int;
  mutable events : int;
}

let fresh_thread () =
  { barrier = Level.bottom;
    acc = Level.bottom;
    ld_view = Level.bottom;
    flush_acc = Level.bottom;
    barrier_f = Iset.empty;
    acc_f = Iset.empty;
    ld_view_f = Iset.empty;
    flush_f = Iset.empty }

let fresh_block () =
  { store_l = Level.bottom;
    load_l = Level.bottom;
    store_f = Iset.empty;
    load_f = Iset.empty }

(* Absent-entry markers for the tables above.  Shared by every engine and
   never mutated: a lookup that returns one creates the real entry. *)
let no_thread = fresh_thread ()
let no_block = fresh_block ()
let no_open = { node = -1; lv = Level.bottom; merged = 0 }
let no_pend : Iset.t Queue.t = Queue.create ()

(* DPOR creates one engine per execution, over a handful of events: every
   table starts small and grows with the trace. *)
let create cfg =
  { cfg;
    threads = Array.make 4 no_thread;
    blocks = Itbl.create ~absent:no_block 8;
    opens = Itbl.create ~absent:no_open 8;
    graph = (if cfg.Config.record_graph then Some (Persist_graph.create ()) else None);
    persist_nodes = Vec.create ();
    closed = Bytes.empty;
    labels = Hashtbl.create 4;
    durable_f = Iset.empty;
    pend = Itbl.create ~absent:no_pend 8;
    next_node = 0;
    max_level = 0;
    persist_events = 0;
    coalesced = 0;
    events = 0 }

let config t = t.cfg

(* Thread ids index an array: the machine numbers its threads densely
   from 0, and its drain pseudo-threads start at 2^16. *)
let max_tid = 1 lsl 16

let thread t tid =
  let n = Array.length t.threads in
  if tid >= n then begin
    let a = Array.make (max (tid + 1) (2 * n)) no_thread in
    Array.blit t.threads 0 a 0 n;
    t.threads <- a
  end;
  let ts = t.threads.(tid) in
  if ts != no_thread then ts
  else begin
    let ts = fresh_thread () in
    t.threads.(tid) <- ts;
    ts
  end

let block t b =
  let bs = Itbl.find t.blocks b in
  if bs != no_block then bs
  else begin
    let bs = fresh_block () in
    Itbl.replace t.blocks b bs;
    bs
  end

let is_closed t node =
  node lsr 3 < Bytes.length t.closed
  && Char.code (Bytes.get t.closed (node lsr 3)) land (1 lsl (node land 7)) <> 0

let close t node =
  let i = node lsr 3 in
  let n = Bytes.length t.closed in
  if i >= n then begin
    let b = Bytes.make (max (i + 1) (2 * n)) '\000' in
    Bytes.blit t.closed 0 b 0 n;
    t.closed <- b
  end;
  Bytes.set t.closed i
    (Char.unsafe_chr (Char.code (Bytes.get t.closed i) lor (1 lsl (node land 7))))

let rec close_all_but t node = function
  | [] -> ()
  | sn :: rest ->
    if sn <> node then close t sn;
    close_all_but t node rest

(* Close every provenance node of a source level but [node] itself. *)
let close_source t node s =
  if Level.level s > 0 then close_all_but t node s.Level.prov

(* Tracked blocks overlapped by an access.  Accesses are at most eight
   bytes and naturally aligned while granularities are at least eight
   bytes, so an access touches exactly one block; keep the general form
   as a guard. *)
let tracked_block t (a : Event.access) =
  let b0 = Memsim.Addr.block ~gran:t.cfg.Config.track_gran a.addr in
  let b1 = Memsim.Addr.block ~gran:t.cfg.Config.track_gran (a.addr + a.size - 1) in
  assert (b0 = b1);
  b0

let record_graph t = t.cfg.Config.record_graph

(* One-level transitive reduction of a frontier set: drop members that
   are direct dependences of other members.  Keeps frontier sets (and
   hence recorded graph edges) close to the covering antichain instead
   of accumulating ancestors chained through shared volatile locations
   such as lock words.  {!Persist_graph.reduce} costs the members'
   summed [deps] sizes and builds a new set only when it drops a
   member. *)
let reduce t set =
  match t.graph with
  | None -> set
  | Some g ->
    let reduced = Persist_graph.reduce g set in
    if M.enabled M.default then begin
      let before = Iset.cardinal set in
      if before > 1 then begin
        M.observe m_frontier_before (float_of_int before);
        M.observe m_frontier_after (float_of_int (Iset.cardinal reduced))
      end
    end;
    reduced

let write_of (a : Event.access) =
  { Persist_graph.addr = a.addr; size = a.size; value = a.value }

(* Handle a persist-generating access whose dependence sources are the
   levels [base], [st] and [ld] (bottom when absent) and the graph
   frontier [deps_f].  Returns the block's open persist, which now holds
   the access: its level is the access's result. *)
let persist t (a : Event.access) ~base ~st ~ld ~deps_f =
  t.persist_events <- t.persist_events + 1;
  M.incr m_persist_events;
  let pb = Memsim.Addr.block ~gran:t.cfg.Config.persist_gran a.addr in
  (* Px86 durability: persists already durable when this one is created
     become order-only edges — they bound recovery cuts but carry no
     level, because a line parked in the persistence buffer does not
     delay later persists. *)
  let order_f =
    if record_graph t then Iset.diff t.durable_f deps_f else Iset.empty
  in
  if not (Iset.is_empty order_f) then
    M.add m_order_edges (Iset.cardinal order_f);
  let op = Itbl.find t.opens pb in
  let op =
    if
      op != no_open && t.cfg.Config.coalescing
      && (not (is_closed t op.node))
      && max
           (Level.excluding ~node:op.node base)
           (max
              (Level.excluding ~node:op.node st)
              (Level.excluding ~node:op.node ld))
         < Level.level op.lv
      &&
      match t.graph with
      | Some g ->
        (* an order dep at or above the open persist's level could
           already be ordered after it; merging would close a cycle in
           the cut DAG *)
        Iset.for_all
          (fun d ->
            d = op.node
            || (Persist_graph.get g d).Persist_graph.level < Level.level op.lv)
          order_f
      | None -> true
    then begin
      (* Coalesce into the block's open persist: every dependence not
         produced by that persist is strictly older, and nothing has
         been ordered after the open persist yet. *)
      t.coalesced <- t.coalesced + 1;
      M.incr m_coalesced;
      op.merged <- op.merged + 1;
      (match t.graph with
      | Some g ->
        Persist_graph.coalesce_into g op.node ~deps:deps_f ~order:order_f
          (write_of a)
      | None -> ());
      op
    end
    else begin
      let level =
        1 + max (Level.level base) (max (Level.level st) (Level.level ld))
      in
      let node =
        match t.graph with
        | Some g ->
          Persist_graph.add_node g ~tid:a.tid ~level ~deps:deps_f ~order:order_f
            (write_of a)
        | None ->
          let id = t.next_node in
          t.next_node <- id + 1;
          id
      in
      let lv = Level.of_node ~level ~node in
      M.incr m_persist_ops;
      M.observe m_level (float_of_int level);
      if op == no_open then begin
        let op = { node; lv; merged = 1 } in
        Itbl.replace t.opens pb op;
        op
      end
      else begin
        (* The block's previous open persist ends its coalescing run
           here; runs still open at end of trace go unobserved. *)
        M.observe m_coalesce_run (float_of_int op.merged);
        op.node <- node;
        op.lv <- lv;
        op.merged <- 1;
        op
      end
    end
  in
  (* This persist is now ordered after every source persist it did not
     merge into; those persists can no longer accept coalesced writes —
     a later write merging into them would persist "before" a persist
     that is already ordered after them, defeating the dependence the
     recovery protocol relies on (paper Section 7: the ability to
     coalesce is itself propagated through memory and thread state). *)
  close_source t op.node base;
  close_source t op.node st;
  close_source t op.node ld;
  if record_graph t then Vec.push t.persist_nodes op.node;
  let level = Level.level op.lv in
  if level > t.max_level then begin
    t.max_level <- level;
    M.observe_max m_cp (float_of_int level)
  end;
  op

(* Commit the flush set like an sfence: into the thread's views and —
   under synchronous Px86 — into the global durable frontier (the fence
   blocks until the flushed lines reach NVRAM).  Under buffered Px86
   the fence only orders the persistence buffer; durability arrives at
   the matching [Pdrain] events. *)
let commit_flushes t ts =
  ts.barrier <- Level.merge ts.barrier ts.flush_acc;
  ts.acc <- Level.merge ts.acc ts.flush_acc;
  if record_graph t then begin
    ts.barrier_f <- Iset.union ts.barrier_f ts.flush_f;
    ts.acc_f <- Iset.union ts.acc_f ts.flush_f;
    if t.cfg.Config.px86 = Config.Px86_sync && not (Iset.is_empty ts.flush_f)
    then t.durable_f <- reduce t (Iset.union t.durable_f ts.flush_f)
  end;
  ts.flush_acc <- Level.bottom;
  ts.flush_f <- Iset.empty

let access t kind (a : Event.access) =
  let ts = thread t a.tid in
  (* A locked RMW drains the store buffer and orders the persistence
     buffer exactly like sfence (Px86: RMW-as-fence), so pending
     flushes commit before the access itself is processed. *)
  (match kind with
  | Event.Rmw
    when (match t.cfg.Config.mode with
         | Config.Epoch | Config.Strand -> true
         | Config.Strict -> false) ->
    commit_flushes t ts
  | Event.Rmw | Event.Load | Event.Store -> ());
  let recording = record_graph t in
  let conflicts_tracked =
    (not t.cfg.Config.persistent_only_conflicts)
    || Memsim.Addr.equal_space a.space Memsim.Addr.Persistent
  in
  let b = tracked_block t a in
  let bs = block t b in
  let is_store =
    match kind with
    | Event.Load -> false
    | Event.Store | Event.Rmw -> true
  in
  let is_load =
    match kind with
    | Event.Load | Event.Rmw -> true
    | Event.Store -> false
  in
  (* Dependence sources: the thread-order base, plus conflicting block
     levels.  The base is the thread's barrier view, except for loads
     under strict/TSO persistency, which only observe earlier loads,
     RMWs and fences (stores may become visible past them).  A store
     also conflicts with earlier loads (SC ordering); under the
     BPFS/TSO conflict-detection ablation those load levels are
     ignored.  An absent source is bottom, which no merge sees. *)
  let strict_tso =
    t.cfg.Config.mode = Config.Strict && t.cfg.Config.consistency = Config.Tso
  in
  let load_view = strict_tso && is_load && not is_store in
  let base = if load_view then ts.ld_view else ts.barrier in
  let conflicts_loads =
    conflicts_tracked && is_store && not t.cfg.Config.tso_conflicts
  in
  let st = if conflicts_tracked then bs.store_l else Level.bottom in
  let ld = if conflicts_loads then bs.load_l else Level.bottom in
  let deps_f =
    if not recording then Iset.empty
    else begin
      let d = if load_view then ts.ld_view_f else ts.barrier_f in
      let d = if conflicts_tracked then Iset.union d bs.store_f else d in
      let d = if conflicts_loads then Iset.union d bs.load_f else d in
      reduce t d
    end
  in
  let is_persist =
    is_store && Memsim.Addr.equal_space a.space Memsim.Addr.Persistent
  in
  let op = if is_persist then persist t a ~base ~st ~ld ~deps_f else no_open in
  let result =
    if is_persist then op.lv else Level.merge base (Level.merge st ld)
  in
  let result_f =
    if not recording then Iset.empty
    else if is_persist then Iset.singleton op.node
    else deps_f
  in
  (* Frontier maintenance.  A store-like access's result covers (in the
     down-closure sense) everything in its dependence set, so replacing
     the block frontier keeps sets bounded without losing ordering:
     - after a persist, the block's frontier is exactly the node;
     - a volatile store's frontier is its dependence set;
     - loads from different threads are mutually unordered, so the load
       frontier must accumulate (it is cleared by the next store, whose
       dependence set covers it — except under the TSO ablation, where
     stores do not observe loads). *)
  if conflicts_tracked then begin
    if is_load && not is_store then begin
      bs.load_l <- Level.merge bs.load_l result;
      if recording then bs.load_f <- Iset.union bs.load_f result_f
    end
    else begin
      bs.store_l <- Level.merge bs.store_l result;
      if recording then begin
        bs.store_f <- result_f;
        if not t.cfg.Config.tso_conflicts then bs.load_f <- Iset.empty
      end
    end
  end;
  ts.acc <- Level.merge ts.acc result;
  if recording then
    ts.acc_f <-
      (if is_persist then Iset.union (Iset.diff ts.acc_f deps_f) result_f
       else Iset.union ts.acc_f result_f);
  (* Strict persistency: persistent memory order equals volatile memory
     order.  Under SC an implicit barrier follows every event; under
     TSO stores still serialize (the barrier view accumulates
     everything) but only loads, RMWs and fences advance the load view;
     under RMO nothing implicit — fences alone order the thread. *)
  match t.cfg.Config.mode with
  | Config.Strict -> begin
    match t.cfg.Config.consistency with
    | Config.Sc ->
      ts.barrier <- ts.acc;
      ts.ld_view <- ts.acc;
      if recording then begin
        ts.barrier_f <- ts.acc_f;
        ts.ld_view_f <- ts.acc_f
      end
    | Config.Tso ->
      ts.barrier <- ts.acc;
      if recording then ts.barrier_f <- ts.acc_f;
      if is_load then begin
        ts.ld_view <- Level.merge ts.ld_view result;
        if recording then ts.ld_view_f <- Iset.union ts.ld_view_f result_f
      end
    | Config.Rmo -> ()
  end
  | Config.Epoch | Config.Strand -> ()

let barrier_of t (ts : tstate) =
  ts.barrier <- Level.merge ts.barrier ts.acc;
  (* acc covers the old barrier frontier (it only ever grows within a
     thread), so the snapshot can replace rather than accumulate. *)
  if record_graph t then ts.barrier_f <- ts.acc_f

let observe t ev =
  let tid = Event.tid ev in
  if tid < 0 || tid >= max_tid then
    invalid_arg
      (Printf.sprintf "Engine.observe: thread id %d outside [0, %d) in event %S"
         tid max_tid (Event.to_string ev));
  t.events <- t.events + 1;
  M.incr m_events;
  match ev with
  | Event.Access (kind, a) -> access t kind a
  | Event.Persist_barrier { tid; _ } ->
    M.incr m_barriers;
    (match t.cfg.Config.mode with
    | Config.Epoch | Config.Strand ->
      let ts = thread t tid in
      (* the epoch barrier subsumes a fence: pending flushes commit *)
      commit_flushes t ts;
      barrier_of t ts
    | Config.Strict ->
      (* under a relaxed consistency the event doubles as the memory
         fence that restores thread order *)
      (match t.cfg.Config.consistency with
      | Config.Sc -> ()
      | Config.Tso | Config.Rmo ->
        let ts = thread t tid in
        barrier_of t ts;
        ts.ld_view <- ts.acc;
        if record_graph t then ts.ld_view_f <- ts.acc_f))
  | Event.New_strand { tid; _ } ->
    M.incr m_strands;
    (match t.cfg.Config.mode with
    | Config.Strand ->
      let ts = thread t tid in
      ts.barrier <- Level.bottom;
      ts.acc <- Level.bottom;
      ts.flush_acc <- Level.bottom;
      ts.barrier_f <- Iset.empty;
      ts.acc_f <- Iset.empty;
      ts.flush_f <- Iset.empty
    | Config.Strict | Config.Epoch -> ())
  | Event.Flush { tid; addr; _ } ->
    (* Px86 writeback request: capture the flushed line's current
       persist frontier; a later fence orders it before the thread's
       subsequent accesses.  The line may have been written by any
       thread — flushing another thread's store is how Px86 publishes
       it.  Under strict persistency volatile order already dictates
       persist order, so the flush carries no extra constraint. *)
    M.incr m_flushes;
    (match t.cfg.Config.mode with
    | Config.Epoch | Config.Strand ->
      let ts = thread t tid in
      let b = Memsim.Addr.block ~gran:t.cfg.Config.track_gran addr in
      let bs = Itbl.find t.blocks b in
      if bs != no_block then begin
        ts.flush_acc <- Level.merge ts.flush_acc bs.store_l;
        if record_graph t then ts.flush_f <- Iset.union ts.flush_f bs.store_f
      end;
      if record_graph t && t.cfg.Config.px86 = Config.Px86_buffered then begin
        let line = addr asr 3 in
        let q = Itbl.find t.pend line in
        let q =
          if q != no_pend then q
          else begin
            let q = Queue.create () in
            Itbl.replace t.pend line q;
            q
          end
        in
        (* push even when the capture is empty so queue fronts stay
           aligned with the machine's per-line persistence-buffer FIFO;
           an absent block's frontier is empty *)
        Queue.push bs.store_f q
      end
    | Config.Strict -> ())
  | Event.Fence { tid; _ } ->
    (* sfence/mfence: commit the flushes accumulated since the last
       fence into the thread's barrier view — later accesses (and the
       next epoch barrier) are ordered after the flushed persists.
       This is the per-line weaker cousin of [Persist_barrier], which
       orders the whole epoch.  Under strict persistency the fence
       doubles as the consistency fence, like [Persist_barrier]. *)
    M.incr m_fences;
    let ts = thread t tid in
    (match t.cfg.Config.mode with
    | Config.Epoch | Config.Strand -> commit_flushes t ts
    | Config.Strict ->
      (match t.cfg.Config.consistency with
      | Config.Sc -> ()
      | Config.Tso | Config.Rmo ->
        barrier_of t ts;
        ts.ld_view <- ts.acc;
        if record_graph t then ts.ld_view_f <- ts.acc_f))
  | Event.Pdrain { addr; _ } ->
    (* the persistence buffer drained this line: the persists captured
       by the matching flush are durable, and every persist created
       from here on is cut-ordered after them *)
    M.incr m_pdrains;
    if record_graph t && t.cfg.Config.px86 = Config.Px86_buffered then begin
      let q = Itbl.find t.pend (addr asr 3) in
      if not (Queue.is_empty q) then begin
        let capture = Queue.pop q in
        if not (Iset.is_empty capture) then
          t.durable_f <- reduce t (Iset.union t.durable_f capture)
      end
    end
  | Event.Label (_, name) ->
    M.incr m_labels;
    (match Hashtbl.find_opt t.labels name with
    | Some r -> incr r
    | None -> Hashtbl.add t.labels name (ref 1))

(* Whole-trace replay is the hot loop; when the registry is live, time
   it and keep the best events/sec the process reached.  Disabled, the
   extra cost is one boolean load. *)
let observe_trace t trace =
  if Obs.Perfscope.enabled () then begin
    let before = t.events in
    let span = Obs.Perfscope.start () in
    Memsim.Trace.iter (observe t) trace;
    let d = Obs.Perfscope.finish span in
    Obs.Perfscope.throughput m_events_rate ~items:(t.events - before)
      ~seconds:d.Obs.Perfscope.wall_s
  end
  else Memsim.Trace.iter (observe t) trace

(* The one feed of a workload run into a fresh engine.  Normally events
   stream straight from the machine sink into the engine (no
   materialized trace).  When span tracing is on, the trace is
   materialized so that generation and analysis appear as distinct
   phases in the timeline — the engine sees the same events in the
   same order, so results are identical. *)
let feed produce sink =
  if Obs.Tracer.enabled () then begin
    let trace = Memsim.Trace.create () in
    let r =
      Obs.Tracer.with_span ~cat:"phase" "trace generation" (fun () ->
          produce ~sink:(Memsim.Trace.sink trace))
    in
    Obs.Tracer.with_span ~cat:"phase"
      ~args:[ ("events", string_of_int (Memsim.Trace.length trace)) ]
      "engine analysis"
      (fun () -> Memsim.Trace.iter sink trace);
    r
  end
  else produce ~sink

let run cfg produce =
  let t = create cfg in
  let r = feed produce (observe t) in
  (t, r)

let critical_path t = t.max_level
let persist_events t = t.persist_events
let persist_ops t = t.persist_events - t.coalesced
let coalesced t = t.coalesced
let events t = t.events

let label_count t name =
  match Hashtbl.find_opt t.labels name with
  | Some r -> !r
  | None -> 0

let cp_per_label t name =
  let n = label_count t name in
  if n = 0 then Float.nan else float_of_int t.max_level /. float_of_int n

let graph t = t.graph

let node_of_persist_event t i = Vec.get t.persist_nodes i
