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
  node : int;
  level : int;
  mutable merged : int;  (* persist events absorbed, incl. the first *)
}

type t = {
  cfg : Config.t;
  threads : (int, tstate) Hashtbl.t;
  blocks : (int, bstate) Hashtbl.t;  (* keyed by tracked block index *)
  opens : (int, open_persist) Hashtbl.t;  (* keyed by atomic block index *)
  graph : Persist_graph.t option;
  persist_nodes : int Vec.t;  (* persist event index -> node id *)
  closed : (int, unit) Hashtbl.t;
      (* nodes some other persist depends on: no further coalescing *)
  labels : (string, int ref) Hashtbl.t;
  mutable durable_f : Iset.t;
      (* Px86 durable frontier: persists whose flushed lines are known
         durable (fence-committed under [Px86_sync], drained under
         [Px86_buffered]).  Every later persist is cut-ordered after
         them via order-only edges — levels are never affected. *)
  pend : (int, Iset.t Queue.t) Hashtbl.t;
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

let create cfg =
  { cfg;
    threads = Hashtbl.create 16;
    blocks = Hashtbl.create 1024;
    opens = Hashtbl.create 1024;
    graph = (if cfg.Config.record_graph then Some (Persist_graph.create ()) else None);
    persist_nodes = Vec.create ();
    closed = Hashtbl.create 1024;
    labels = Hashtbl.create 4;
    durable_f = Iset.empty;
    pend = Hashtbl.create 64;
    next_node = 0;
    max_level = 0;
    persist_events = 0;
    coalesced = 0;
    events = 0 }

let config t = t.cfg

let thread t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some ts -> ts
  | None ->
    let ts =
      { barrier = Level.bottom;
        acc = Level.bottom;
        ld_view = Level.bottom;
        flush_acc = Level.bottom;
        barrier_f = Iset.empty;
        acc_f = Iset.empty;
        ld_view_f = Iset.empty;
        flush_f = Iset.empty }
    in
    Hashtbl.add t.threads tid ts;
    ts

let block t b =
  match Hashtbl.find_opt t.blocks b with
  | Some bs -> bs
  | None ->
    let bs =
      { store_l = Level.bottom;
        load_l = Level.bottom;
        store_f = Iset.empty;
        load_f = Iset.empty }
    in
    Hashtbl.add t.blocks b bs;
    bs

(* Tracked blocks overlapped by an access.  Accesses are at most eight
   bytes and naturally aligned while granularities are at least eight
   bytes, so an access touches exactly one block; keep the general form
   as a guard. *)
let tracked_block t (a : Event.access) =
  let b0 = Memsim.Addr.block ~gran:t.cfg.Config.track_gran a.addr in
  let b1 = Memsim.Addr.block ~gran:t.cfg.Config.track_gran (a.addr + a.size - 1) in
  assert (b0 = b1);
  b0

let fresh_node t ~tid ~level ~deps ~order write =
  match t.graph with
  | Some g -> Persist_graph.add_node g ~tid ~level ~deps ~order write
  | None ->
    let id = t.next_node in
    t.next_node <- id + 1;
    id

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

(* Handle a persist-generating access whose dependence sources are
   [sources] (levels) and [deps_f] (graph frontier). *)
let persist t (a : Event.access) ~sources ~deps_f =
  t.persist_events <- t.persist_events + 1;
  M.incr m_persist_events;
  let pb = Memsim.Addr.block ~gran:t.cfg.Config.persist_gran a.addr in
  let write = { Persist_graph.addr = a.addr; size = a.size; value = a.value } in
  let full = List.fold_left Level.merge Level.bottom sources in
  (* Px86 durability: persists already durable when this one is created
     become order-only edges — they bound recovery cuts but carry no
     level, because a line parked in the persistence buffer does not
     delay later persists. *)
  let order_f =
    if record_graph t then Iset.diff t.durable_f deps_f else Iset.empty
  in
  if not (Iset.is_empty order_f) then
    M.add m_order_edges (Iset.cardinal order_f);
  let node, level =
    match Hashtbl.find_opt t.opens pb with
    | Some op
      when t.cfg.Config.coalescing
           && (not (Hashtbl.mem t.closed op.node))
           && Level.excluding ~node:op.node sources < op.level
           && (match t.graph with
              | Some g ->
                (* an order dep at or above the open persist's level
                   could already be ordered after it; merging would
                   close a cycle in the cut DAG *)
                Iset.for_all
                  (fun d ->
                    d = op.node
                    || (Persist_graph.get g d).Persist_graph.level < op.level)
                  order_f
              | None -> true) ->
      (* Coalesce into the block's open persist: every dependence not
         produced by that persist is strictly older, and nothing has
         been ordered after the open persist yet. *)
      t.coalesced <- t.coalesced + 1;
      M.incr m_coalesced;
      op.merged <- op.merged + 1;
      (match t.graph with
      | Some g ->
        Persist_graph.coalesce_into g op.node ~deps:deps_f ~order:order_f write
      | None -> ());
      (op.node, op.level)
    | (Some _ | None) as replaced ->
      let level = Level.level full + 1 in
      let node = fresh_node t ~tid:a.tid ~level ~deps:deps_f ~order:order_f write in
      (* The block's previous open persist (if any) ends its coalescing
         run here; runs still open at end of trace go unobserved. *)
      (match replaced with
      | Some op -> M.observe m_coalesce_run (float_of_int op.merged)
      | None -> ());
      Hashtbl.replace t.opens pb { node; level; merged = 1 };
      M.incr m_persist_ops;
      M.observe m_level (float_of_int level);
      (node, level)
  in
  (* This persist is now ordered after every source persist it did not
     merge into; those persists can no longer accept coalesced writes —
     a later write merging into them would persist "before" a persist
     that is already ordered after them, defeating the dependence the
     recovery protocol relies on (paper Section 7: the ability to
     coalesce is itself propagated through memory and thread state). *)
  List.iter
    (fun s ->
      if Level.level s > 0 then
        List.iter
          (fun sn -> if sn <> node then Hashtbl.replace t.closed sn ())
          (Level.provenance s))
    sources;
  if record_graph t then Vec.push t.persist_nodes node;
  if level > t.max_level then begin
    t.max_level <- level;
    M.observe_max m_cp (float_of_int level)
  end;
  (Level.of_node ~level ~node, Iset.singleton node)

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
     ignored. *)
  let strict_tso =
    t.cfg.Config.mode = Config.Strict && t.cfg.Config.consistency = Config.Tso
  in
  let base, base_f =
    if strict_tso && is_load && not is_store then (ts.ld_view, ts.ld_view_f)
    else (ts.barrier, ts.barrier_f)
  in
  let sources = ref [ base ] in
  let deps_f = ref base_f in
  if conflicts_tracked then begin
    sources := bs.store_l :: !sources;
    if record_graph t then deps_f := Iset.union !deps_f bs.store_f;
    if is_store && not t.cfg.Config.tso_conflicts then begin
      sources := bs.load_l :: !sources;
      if record_graph t then deps_f := Iset.union !deps_f bs.load_f
    end
  end;
  let deps_f = if record_graph t then reduce t !deps_f else !deps_f in
  let is_persist =
    is_store && Memsim.Addr.equal_space a.space Memsim.Addr.Persistent
  in
  let result, result_f =
    if is_persist then persist t a ~sources:!sources ~deps_f
    else (List.fold_left Level.merge Level.bottom !sources, deps_f)
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
      if record_graph t then bs.load_f <- Iset.union bs.load_f result_f
    end
    else begin
      bs.store_l <- Level.merge bs.store_l result;
      if record_graph t then begin
        bs.store_f <- result_f;
        if not t.cfg.Config.tso_conflicts then bs.load_f <- Iset.empty
      end
    end
  end;
  ts.acc <- Level.merge ts.acc result;
  if record_graph t then
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
      if record_graph t then begin
        ts.barrier_f <- ts.acc_f;
        ts.ld_view_f <- ts.acc_f
      end
    | Config.Tso ->
      ts.barrier <- ts.acc;
      if record_graph t then ts.barrier_f <- ts.acc_f;
      if is_load then begin
        ts.ld_view <- Level.merge ts.ld_view result;
        if record_graph t then
          ts.ld_view_f <- Iset.union ts.ld_view_f result_f
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
  t.events <- t.events + 1;
  M.incr m_events;
  match ev with
  | Event.Access (kind, a) -> access t kind a
  | Event.Persist_barrier tid ->
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
  | Event.New_strand tid ->
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
      let capture_f =
        match Hashtbl.find_opt t.blocks b with
        | Some bs ->
          ts.flush_acc <- Level.merge ts.flush_acc bs.store_l;
          if record_graph t then ts.flush_f <- Iset.union ts.flush_f bs.store_f;
          bs.store_f
        | None -> Iset.empty
      in
      if record_graph t && t.cfg.Config.px86 = Config.Px86_buffered then begin
        let line = addr asr 3 in
        let q =
          match Hashtbl.find_opt t.pend line with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.add t.pend line q;
            q
        in
        (* push even when the capture is empty so queue fronts stay
           aligned with the machine's per-line persistence-buffer FIFO *)
        Queue.push capture_f q
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
      match Hashtbl.find_opt t.pend (addr asr 3) with
      | Some q when not (Queue.is_empty q) ->
        let capture = Queue.pop q in
        if not (Iset.is_empty capture) then
          t.durable_f <- reduce t (Iset.union t.durable_f capture)
      | Some _ | None -> ()
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
let run cfg produce =
  let t = create cfg in
  if Obs.Tracer.enabled () then begin
    let trace = Memsim.Trace.create () in
    let r =
      Obs.Tracer.with_span ~cat:"phase" "trace generation" (fun () ->
          produce ~sink:(Memsim.Trace.sink trace))
    in
    Obs.Tracer.with_span ~cat:"phase"
      ~args:[ ("events", string_of_int (Memsim.Trace.length trace)) ]
      "engine analysis"
      (fun () -> Memsim.Trace.iter (observe t) trace);
    (t, r)
  end
  else
    let r = produce ~sink:(observe t) in
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
