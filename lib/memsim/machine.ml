open Effect
open Effect.Deep
module Om = Obs.Metrics

(* Store-buffer instrumentation (lib/obs): no-ops while the default
   registry is disabled. *)
let m_drains = Om.counter Om.default "machine.store_buffer_drains"
let m_flushes = Om.counter Om.default "machine.flushes"
let m_fences = Om.counter Om.default "machine.fences"

let m_occupancy =
  Om.histogram Om.default ~buckets:(Om.pow2_buckets 7)
    "machine.store_buffer_occupancy"

let m_pb_enqueues = Om.counter Om.default "machine.persist_buffer_enqueues"
let m_pb_drains = Om.counter Om.default "machine.persist_buffer_drains"

let m_pb_occupancy =
  Om.histogram Om.default ~buckets:(Om.pow2_buckets 7)
    "machine.persist_buffer_occupancy"

type script = {
  mutable forced : int list;
  mutable log : (int * int) list;  (* reversed (choice, runnable count) *)
}

let script ~forced = { forced; log = [] }
let script_choices s = List.rev s.log

type access = {
  addr : int;
  size : int;
  write : bool;
}

type step_info = {
  tid : int;
  index : int;
  next : access option;
}

type guide = {
  choose : step_info array -> int;
  on_step : int -> access list -> unit;
}

type policy =
  | Round_robin
  | Random of int
  | Scripted of script
  | Guided of guide

type model =
  | Sc
  | Tso

type persistence =
  | Psync
  | Pbuffered

type barrier_impl =
  | Pbarrier
  | Flush_sfence

(* Buffer-drain steps are scheduling decisions attributed to a
   pseudo-thread derived from the buffering thread's id, so guides
   (DPOR) can distinguish "thread t runs its next operation" from
   "thread t's store buffer drains one entry".  Persistence-buffer
   drains get their own pseudo-tid range, derived from the drained
   line (per-line FIFO ordering means at most one entry per line is
   ever eligible, so the tid is unique within an enabled set and
   stable across exploration branches). *)
let drain_tid_base = 1 lsl 16
let persist_tid_base = 1 lsl 17
let drain_tid tid = drain_tid_base + tid
let is_drain_tid tid = tid >= drain_tid_base && tid < persist_tid_base
let drain_parent tid = tid - drain_tid_base
let persist_tid addr = persist_tid_base + (addr asr 3)
let is_persist_tid tid = tid >= persist_tid_base

exception Deadlock of int list

exception Script_out_of_range of {
  decision : int;
  choice : int;
  runnable : int;
}

type lock = {
  word : int;  (* volatile address of the lock word *)
  mutable owner : int option;
  waiters : unit pending Queue.t;
      (* parked acquires, in arrival order, as their grant entries *)
}

(* A suspended thread's run-queue entry: its thread id, the static
   footprint of its pending operation (None when the step touches no
   shared location — thread starts, lock-grant resumptions, yields),
   whether the operation requires the thread's store buffer to be empty
   first (TSO locked instructions and fences), the operation, and the
   thread's continuation, which the operation's value resumes. *)
and 'a pending = {
  tid : int;
  next : access option;
  drains : bool;
  op : 'a op;
  k : ('a, unit) continuation;
}

and _ op =
  | Self : int op
  | Load : { addr : int; size : int } -> int64 op
  | Store : { addr : int; size : int; value : int64 } -> unit op
  | Rmw : { addr : int; f : int64 -> int64 } -> int64 op
  | Persist_barrier : Event.site -> unit op
  | New_strand : Event.site -> unit op
  | Label : string -> unit op
  | Malloc : { space : Addr.space; size : int } -> int op
  | Free : int -> unit op
  | Yield : unit op
  | Lock_op : lock -> unit op
  | Unlock_op : lock -> unit op
  | Flush_op : { kind : Event.flush_kind; addr : int } -> unit op
  | Fence_op : Event.fence_kind -> unit op

type entry = Entry : 'a pending -> entry [@@unboxed]

(* [Suspend park] hands the calling thread's continuation to [park];
   [E op] is performed only outside a running thread, where no handler
   takes it and it raises [Effect.Unhandled]. *)
type _ Effect.t +=
  | Suspend : (('a, unit) continuation -> unit) -> 'a Effect.t
  | E : 'a op -> 'a Effect.t

(* One entry of a thread's FIFO store buffer (TSO). *)
type sb_entry =
  | Sb_store of { addr : int; size : int; value : int64; space : Addr.space }
  | Sb_flush of { kind : Event.flush_kind; addr : int }

(* One pending entry of the (global) persistence buffer: a line whose
   contents were captured by a flush but have not yet reached NVRAM.
   [pb_epoch] is the flushing thread's fence epoch at capture time:
   entries of an earlier epoch of the same thread must drain first
   (sfence/mfence/locked RMWs only *order* the buffer, they never
   force a drain).  [pb_seq] is a global enqueue stamp giving same-line
   entries their FIFO order; [pb_head] marks the pending entry of its
   line with the smallest stamp. *)
type pb_entry = {
  pb_tid : int;
  pb_kind : Event.flush_kind;
  pb_addr : int;
  pb_epoch : int;
  pb_seq : int;
  mutable pb_head : bool;
}

type runq =
  | Fifo of entry Queue.t
  | Bag of entry Vec.t * Random.State.t
  | Script_bag of entry Vec.t * script
  | Guided_bag of entry Vec.t * guide

type t = {
  mem : Memory.t;
  runq : runq;
  model : model;
  persistence : persistence;
  barrier : barrier_impl;
  mutable buffers : sb_entry Queue.t option array;
      (* by tid: the thread's store buffer (TSO), once it has one *)
  pbuf : pb_entry Vec.t;  (* persistence buffer (Pbuffered only) *)
  mutable pb_ok : bool array;
      (* by [pbuf] index: the entry may drain at this step *)
  mutable least_epoch : int array;
      (* by tid: the smallest fence epoch among its pending entries *)
  mutable cand : int array;
      (* by choice-set position: the candidate it offers (Guided) *)
  pepoch : (int, int) Hashtbl.t;  (* tid -> current fence epoch *)
  mutable pseq : int;
  dirty : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* tid -> dirty persistent lines since its last barrier
         (Flush_sfence only) *)
  unfenced : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* tid -> lines flushed since its last fence-like commit point
         (sfence/mfence/persist barrier/locked RMW).  Under synchronous
         Px86 that commit makes exactly these lines durable, so the
         committing step must look like a write to them to systematic
         exploration — line-precise, because widening to the whole
         persistent space makes every fence conflict with every
         persistent access and blows up DPOR on flush-heavy programs. *)
  mutable sink : Event.t -> unit;
  mutable next_tid : int;
  mutable events : int;
  blocked : (int, unit) Hashtbl.t;
  mutable step_log : access list;  (* dynamic footprint of the running
                                      step, newest first (Guided only) *)
  mutable step_tid : int;
      (* the running step's tid, as [on_step] reports it; -1 when no step
         is open (Guided only) *)
  mutable decided : int;
      (* the candidate a suspending thread drew for the scheduler to
         run; -1 when the scheduler draws itself *)
  mutable own : int;
      (* the thread awaiting its turn in place (see [await]): its
         pending operation holds the run queue's last slot without an
         entry; -1 when there is none *)
  mutable own_drains : bool;  (* that operation's [drains] *)
  mutable own_next : access option;
      (* and its static footprint (Guided only) *)
}

let create ?(policy = Round_robin) ?(model = Sc) ?(persistence = Psync)
    ?(barrier = Pbarrier) ~memory () =
  let runq =
    match policy with
    | Round_robin -> Fifo (Queue.create ())
    | Random seed -> Bag (Vec.create (), Random.State.make [| seed |])
    | Scripted s -> Script_bag (Vec.create (), s)
    | Guided g -> Guided_bag (Vec.create (), g)
  in
  { mem = memory;
    runq;
    model;
    persistence;
    barrier;
    buffers = [||];
    pbuf = Vec.create ();
    pb_ok = [||];
    least_epoch = [||];
    cand = [||];
    pepoch = Hashtbl.create 8;
    pseq = 0;
    dirty = Hashtbl.create 8;
    unfenced = Hashtbl.create 8;
    sink = ignore;
    next_tid = 0;
    events = 0;
    blocked = Hashtbl.create 8;
    step_log = [];
    step_tid = -1;
    decided = -1;
    own = -1;
    own_drains = false;
    own_next = None }

let memory t = t.mem
let model t = t.model
let persistence t = t.persistence
let set_sink t sink = t.sink <- sink
let event_count t = t.events

let guided t =
  match t.runq with
  | Guided_bag _ -> true
  | Fifo _ | Bag _ | Script_bag _ -> false

let note_access t acc = if guided t then t.step_log <- acc :: t.step_log

let push t e =
  match t.runq with
  | Fifo q -> Queue.push e q
  | Bag (v, _) | Script_bag (v, _) | Guided_bag (v, _) -> Vec.push v e

let emit t ev =
  t.events <- t.events + 1;
  (if guided t then
     match ev with
     | Event.Access (k, a) ->
       t.step_log <-
         { addr = a.addr; size = a.size; write = k <> Event.Load }
         :: t.step_log
     | Event.Flush { addr; _ } ->
       (* a flush reads the line's contents: it conflicts with stores to
          the line but not with loads or other flushes *)
       t.step_log <- { addr; size = 8; write = false } :: t.step_log
     | Event.Pdrain _ ->
       (* a persistence-buffer drain moves the durable frontier, which
          only later persist-node creations (persistent stores) observe
          through their order edges: a whole-persistent-space read
          conflicts with exactly those stores.  Drain-vs-drain and
          drain-vs-load orders are immaterial — the frontier union is
          commutative, same-line drains are FIFO by construction, and
          loads read cache contents, never durability — so marking the
          drain a whole-space *write* would only send DPOR chasing
          unreversible or unobservable races *)
       t.step_log <-
         { addr = 0; size = Addr.volatile_base; write = false } :: t.step_log
     | Event.Persist_barrier _ | Event.New_strand _ | Event.Label _
     | Event.Fence _ ->
       ());
  t.sink ev

let emit_meta t ev = t.sink ev

(* Store-buffer plumbing (TSO).  Stores and flushes issue into the
   calling thread's buffer without an event; the event is emitted when
   the entry drains, so trace order = drain order = the order in which
   stores become visible to other threads and to the persistency
   engine. *)

let find_buffer t tid =
  if tid < Array.length t.buffers then t.buffers.(tid) else None

let buffer t tid =
  match find_buffer t tid with
  | Some b -> b
  | None ->
    let n = Array.length t.buffers in
    if tid >= n then begin
      let a = Array.make (max (tid + 1) (2 * n)) None in
      Array.blit t.buffers 0 a 0 n;
      t.buffers <- a
    end;
    let b = Queue.create () in
    t.buffers.(tid) <- Some b;
    b

let buffer_nonempty t tid =
  match find_buffer t tid with
  | Some b -> not (Queue.is_empty b)
  | None -> false

(* Dirty persistent-line tracking for the Flush_sfence barrier
   expansion: every persistent store remembers its lines, and the
   thread's next persist_barrier flushes exactly those. *)

let note_dirty t tid ~addr ~size =
  if t.barrier = Flush_sfence && Addr.space_of addr = Addr.Persistent then begin
    let lines =
      match Hashtbl.find_opt t.dirty tid with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 16 in
        Hashtbl.add t.dirty tid h;
        h
    in
    for line = addr asr 3 to (addr + size - 1) asr 3 do
      Hashtbl.replace lines (line lsl 3) ()
    done
  end

let take_dirty t tid =
  match Hashtbl.find_opt t.dirty tid with
  | None -> []
  | Some h ->
    let lines = Hashtbl.fold (fun a () acc -> a :: acc) h [] in
    Hashtbl.reset h;
    List.sort compare lines

let push_store t tid ~addr ~size ~value =
  note_dirty t tid ~addr ~size;
  let buf = buffer t tid in
  Queue.push (Sb_store { addr; size; value; space = Addr.space_of addr }) buf;
  Om.observe m_occupancy (float_of_int (Queue.length buf))

let mark_unfenced t tid ~addr =
  let lines =
    match Hashtbl.find_opt t.unfenced tid with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.add t.unfenced tid h;
      h
  in
  Hashtbl.replace lines (addr land lnot 7) ()

let push_flush t tid ~kind ~addr =
  mark_unfenced t tid ~addr;
  let buf = buffer t tid in
  Queue.push (Sb_flush { kind; addr }) buf;
  Om.observe m_occupancy (float_of_int (Queue.length buf))

(* Synchronous-Px86 flush commit (see [unfenced]).  The commit moves
   the durable frontier: every persist node created after it — i.e.
   every later persistent *store*, whose order edges are computed
   against the frontier — is ordered after the committed lines, so the
   committing step must race with other threads' persistent stores for
   DPOR to explore both orders (store-before-commit admits a crash
   with the store durable and the flushed line not; store-after-commit
   forbids it).  Loads and flush captures read cache contents and
   never observe durability, so a whole-persistent-space *read* is the
   exact footprint: it conflicts with writes and nothing else.
   (Widening the commit to a whole-space write makes every fence
   conflict with every traversal load and blows up DPOR on flush-heavy
   programs.) *)
let frontier_read = { addr = 0; size = Addr.volatile_base; write = false }

(* The emptiness test first skips the lookup on machines that never
   flush (the paper's queues run with persist barriers). *)
let pending_commit t tid =
  t.persistence = Psync
  && Hashtbl.length t.unfenced > 0
  &&
  match Hashtbl.find_opt t.unfenced tid with
  | Some lines -> Hashtbl.length lines > 0
  | None -> false

let note_commit t tid =
  if pending_commit t tid then begin
    Hashtbl.reset (Hashtbl.find t.unfenced tid);
    note_access t frontier_read
  end

let commit_footprint t tid fp =
  if not (pending_commit t tid) then fp
  else
    Some
      (match fp with
      | None -> frontier_read
      | Some f ->
        (* static over-approximation: union the op's own footprint with
           the frontier read (sleep-set filter only — may wake sleepers
           spuriously, never misses a race) *)
        let hi = max (f.addr + f.size) Addr.volatile_base in
        { addr = 0; size = hi; write = f.write })

(* Persistence buffer (Pbuffered).  A flush *captures* the line at the
   point its Flush event enters the trace (exec under SC, store-buffer
   drain under TSO) and enqueues it; the captured line reaches NVRAM
   only when a later Pdrain step — a scheduler decision — retires the
   entry.  Fences never wait on this buffer: they only stamp a frontier
   (the thread's fence epoch) that constrains drain order. *)

let cur_epoch t tid =
  match Hashtbl.find_opt t.pepoch tid with Some e -> e | None -> 0

let bump_epoch t tid =
  if t.persistence = Pbuffered then
    Hashtbl.replace t.pepoch tid (cur_epoch t tid + 1)

let pb_line e = e.pb_addr asr 3

(* [a] when it has at least [n] slots, else a larger array of [x]s. *)
let grow a n x =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) x

(* The pending entry of [line] with the smallest stamp, or -1. *)
let pb_line_head t line =
  let best = ref (-1) in
  for i = 0 to Vec.length t.pbuf - 1 do
    let f = Vec.get t.pbuf i in
    if
      pb_line f = line
      && (!best < 0 || f.pb_seq < (Vec.get t.pbuf !best).pb_seq)
    then best := i
  done;
  !best

let note_flush t tid ~kind ~addr =
  Om.incr m_flushes;
  mark_unfenced t tid ~addr;
  emit t (Event.Flush { tid; kind; addr });
  if t.persistence = Pbuffered then begin
    t.pseq <- t.pseq + 1;
    Om.incr m_pb_enqueues;
    Vec.push t.pbuf
      { pb_tid = tid; pb_kind = kind; pb_addr = addr;
        pb_epoch = cur_epoch t tid; pb_seq = t.pseq;
        pb_head = pb_line_head t (addr asr 3) < 0 };
    Om.observe m_pb_occupancy (float_of_int (Vec.length t.pbuf))
  end

(* An entry may drain when no pending same-line entry precedes it
   (per-line FIFO: it is its line's head) and no pending entry of its
   thread carries an earlier fence epoch (the frontier a fence marked).
   One O(P) pass per scheduling step fills [pb_ok] for every entry. *)
let mark_pb_eligible t =
  let np = Vec.length t.pbuf in
  if np > 0 then begin
    t.pb_ok <- grow t.pb_ok np false;
    t.least_epoch <- grow t.least_epoch t.next_tid 0;
    let least = t.least_epoch in
    Array.fill least 0 t.next_tid max_int;
    for i = 0 to np - 1 do
      let e = Vec.get t.pbuf i in
      if e.pb_epoch < least.(e.pb_tid) then least.(e.pb_tid) <- e.pb_epoch
    done;
    for i = 0 to np - 1 do
      let e = Vec.get t.pbuf i in
      t.pb_ok.(i) <- e.pb_head && e.pb_epoch = least.(e.pb_tid)
    done
  end

(* The entry with the globally smallest enqueue stamp is always
   eligible: any blocker would have to precede it. *)
let pb_oldest t =
  let best = ref (-1) in
  for i = 0 to Vec.length t.pbuf - 1 do
    if
      !best < 0 || (Vec.get t.pbuf i).pb_seq < (Vec.get t.pbuf !best).pb_seq
    then best := i
  done;
  !best

let pdrain t i =
  let e = Vec.swap_remove t.pbuf i in
  (match pb_line_head t (pb_line e) with
  | -1 -> ()
  | j -> (Vec.get t.pbuf j).pb_head <- true);
  Om.incr m_pb_drains;
  emit t (Event.Pdrain { tid = e.pb_tid; kind = e.pb_kind; addr = e.pb_addr })

(* Static footprint of the oldest buffered entry: what the next drain
   step of this thread will touch. *)
let drain_footprint t tid =
  match find_buffer t tid with
  | None -> None
  | Some buf ->
    (match Queue.peek_opt buf with
    | None -> None
    | Some (Sb_store { addr; size; _ }) -> Some { addr; size; write = true }
    | Some (Sb_flush { addr; _ }) -> Some { addr; size = 8; write = false })

(* Drain the oldest entry of [tid]'s buffer: apply the store to memory
   (or emit the flush) and emit the event — this is the point where the
   write enters the global memory order. *)
let drain_one t tid =
  match Queue.take (buffer t tid) with
  | Sb_store { addr; size; value; space } ->
    Memory.store t.mem ~addr ~size value;
    Om.incr m_drains;
    emit t (Event.Access (Event.Store, { tid; addr; size; value; space }))
  | Sb_flush { kind; addr } ->
    Om.incr m_drains;
    note_flush t tid ~kind ~addr

let drain_all t tid =
  while buffer_nonempty t tid do
    drain_one t tid
  done

(* Load forwarding: a TSO load reads memory, then overlays the bytes
   of every overlapping store the calling thread still has buffered,
   oldest to newest, so each byte shows its newest buffered value. *)
let load_forwarded t tid ~addr ~size =
  let v = Memory.load t.mem ~addr ~size in
  match find_buffer t tid with
  | None -> v
  | Some buf when Queue.is_empty buf -> v
  | Some buf ->
    Queue.fold
      (fun v -> function
        | Sb_store s when s.addr < addr + size && addr < s.addr + s.size ->
          let lo = max addr s.addr
          and hi = min (addr + size) (s.addr + s.size) in
          let mask =
            if hi - lo = 8 then -1L
            else Int64.pred (Int64.shift_left 1L (8 * (hi - lo)))
          in
          let bytes =
            Int64.logand
              (Int64.shift_right_logical s.value (8 * (lo - s.addr)))
              mask
          in
          let shift = 8 * (lo - addr) in
          Int64.logor
            (Int64.logand v (Int64.lognot (Int64.shift_left mask shift)))
            (Int64.shift_left bytes shift)
        | Sb_store _ | Sb_flush _ -> v)
      v buf

(* Grant [l] to [tid]: update the lock word and emit the acquire RMW
   event that makes the acquisition visible to conflict analyses. *)
let grant t tid l =
  l.owner <- Some tid;
  Memory.store t.mem ~addr:l.word ~size:8 1L;
  bump_epoch t tid;  (* lock acquires are locked RMWs: persist ordering *)
  note_commit t tid;
  emit t
    (Event.Access
       ( Event.Rmw,
         { tid; addr = l.word; size = 8; value = 1L; space = Addr.Volatile } ))

let exec : type a. t -> int -> a op -> a =
 fun t tid op ->
  match op with
  | Self -> tid
  | Load { addr; size } ->
    let value =
      match t.model with
      | Sc -> Memory.load t.mem ~addr ~size
      | Tso -> load_forwarded t tid ~addr ~size
    in
    emit t
      (Event.Access
         (Event.Load, { tid; addr; size; value; space = Addr.space_of addr }));
    value
  | Store { addr; size; value } ->
    note_dirty t tid ~addr ~size;
    Memory.store t.mem ~addr ~size value;
    emit t
      (Event.Access
         (Event.Store, { tid; addr; size; value; space = Addr.space_of addr }));
    ()
  | Rmw { addr; f } ->
    let old = Memory.load t.mem ~addr ~size:8 in
    let value = f old in
    note_dirty t tid ~addr ~size:8;
    Memory.store t.mem ~addr ~size:8 value;
    bump_epoch t tid;  (* locked instruction: orders the persist buffer *)
    note_commit t tid;
    emit t
      (Event.Access
         (Event.Rmw, { tid; addr; size = 8; value; space = Addr.space_of addr }));
    old
  | Persist_barrier site ->
    bump_epoch t tid;
    note_commit t tid;
    emit_meta t (Event.Persist_barrier { tid; site });
    ()
  | New_strand site ->
    emit_meta t (Event.New_strand { tid; site });
    ()
  | Label s ->
    emit_meta t (Event.Label (tid, s));
    ()
  | Malloc { space; size } -> Memory.alloc t.mem space size
  | Free addr -> Memory.free t.mem addr
  | Yield -> ()
  | Flush_op { kind; addr } ->
    note_flush t tid ~kind ~addr;
    ()
  | Fence_op kind ->
    Om.incr m_fences;
    bump_epoch t tid;
    note_commit t tid;
    emit_meta t (Event.Fence { tid; kind });
    ()
  | Lock_op _ -> assert false  (* handled by [acquire] *)
  | Unlock_op l ->
    (match l.owner with
    | Some owner when owner = tid -> ()
    | Some _ | None ->
      invalid_arg "Machine.unlock: calling thread does not hold the lock");
    Memory.store t.mem ~addr:l.word ~size:8 0L;
    emit t
      (Event.Access
         ( Event.Store,
           { tid; addr = l.word; size = 8; value = 0L; space = Addr.Volatile }
         ));
    (match Queue.take_opt l.waiters with
    | Some w ->
      Hashtbl.remove t.blocked w.tid;
      grant t w.tid l;
      push t (Entry w)
    | None -> l.owner <- None);
    ()

(* Static footprint of a pending scheduling-point operation: the shared
   locations its step is known to touch before it runs.  A lock
   operation's footprint is the lock word (treated as a write: the
   acquire is an RMW, and a blocked attempt still orders against the
   release).  This is what a systematic explorer uses as the "next
   transition" of an enabled-but-not-chosen thread. *)
let static_footprint : type a. a op -> access option = function
  | Load { addr; size } -> Some { addr; size; write = false }
  | Store { addr; size; _ } -> Some { addr; size; write = true }
  | Rmw { addr; _ } -> Some { addr; size = 8; write = true }
  | Lock_op l -> Some { addr = l.word; size = 8; write = true }
  | Unlock_op l -> Some { addr = l.word; size = 8; write = true }
  | Flush_op { addr; _ } -> Some { addr; size = 8; write = false }
  | Self | Yield -> None
  | Fence_op _ -> None
  | Persist_barrier _ | New_strand _ | Label _ | Malloc _ | Free _ -> None

(* Only a guided run queue reads an entry's footprint; the others skip
   building it. *)
let footprint t op = if guided t then static_footprint op else None

(* The choice set's candidates, numbered in its fixed order: queued
   entries [0, E), then one store-buffer drain per tid [E, E + T), then
   persistence-buffer entries [E + T, E + T + P).  The last queued
   entry is the [own] slot while a thread awaits its turn in place.  A
   candidate is a pick when eligible, and a pick's rank in this order
   is the index a [Scripted] policy forces.  Thread entries whose
   operation needs an empty buffer ([drains]) are withheld while their
   buffer is non-empty — their drain agent is offered instead, so every
   chosen step performs at most one shared access (what DPOR's
   footprints assume).  [count_picks] makes the step's one eligibility
   pass over the persistence buffer, which [eligible] then reads: every
   policy but round-robin calls it first. *)
let queued_in t v = Vec.length v + Bool.to_int (t.own >= 0)

(* Whether queued entry [c] must wait for its store buffer to drain. *)
let entry_waits t v c =
  if c < Vec.length v then
    let (Entry e) = Vec.get v c in
    e.drains && buffer_nonempty t e.tid
  else t.own_drains && buffer_nonempty t t.own

(* Whether candidate [c] of a choice set with [e] queued entries is a
   pick. *)
let eligible t v ~e c =
  if c < e then not (entry_waits t v c)
  else if c < e + t.next_tid then buffer_nonempty t (c - e)
  else t.pb_ok.(c - e - t.next_tid)

(* Only TSO stores and flushes fill store buffers, so under SC with an
   empty persistence buffer the picks are exactly the queued entries. *)
let entries_only t = t.model = Sc && Vec.is_empty t.pbuf

let count_picks t v =
  if entries_only t then queued_in t v
  else begin
    mark_pb_eligible t;
    let e = queued_in t v in
    let n = ref 0 in
    for c = 0 to e + t.next_tid + Vec.length t.pbuf - 1 do
      if eligible t v ~e c then incr n
    done;
    !n
  end

(* The candidate of the [k]-th pick, 0-based, of a choice set with more
   than [k] picks.  Random and scripted runs walk to it, building no
   choice set. *)
let nth_pick t v k =
  if entries_only t then k
  else begin
    let e = queued_in t v in
    let k = ref k and c = ref (-1) in
    while !k >= 0 do
      incr c;
      if eligible t v ~e !c then decr k
    done;
    !c
  end

let no_info = { tid = -1; index = -1; next = None }
let pdrain_next = Some frontier_read  (* a drain's footprint: see [emit] *)

(* Insert [info], which offers candidate [c], into the tid-sorted run
   [infos.(lo) .. infos.(k - 1)]. *)
let insert_info (infos : step_info array) cand ~lo k (info : step_info) c =
  let j = ref k in
  while !j > lo && infos.(!j - 1).tid > info.tid do
    infos.(!j) <- infos.(!j - 1);
    cand.(!j) <- cand.(!j - 1);
    decr j
  done;
  infos.(!j) <- info;
  cand.(!j) <- c

(* The [n] picks as the guide sees them, in one pass over the
   candidates and sorted by tid: bag entries (at most one per thread),
   then drains, then persistence-buffer entries (at most one per line),
   each run kept sorted by insertion.  [t.cand] records the candidate
   behind each position. *)
let guided_infos t v n =
  let infos = Array.make n no_info in
  t.cand <- grow t.cand n 0;
  let cand = t.cand in
  let e = queued_in t v and nt = t.next_tid in
  let k = ref 0 in
  for c = 0 to e - 1 do
    if eligible t v ~e c then begin
      let tid, next =
        if c < Vec.length v then
          let (Entry en) = Vec.get v c in
          (en.tid, en.next)
        else (t.own, t.own_next)
      in
      insert_info infos cand ~lo:0 !k { tid; index = !k; next } c;
      incr k
    end
  done;
  for tid = 0 to nt - 1 do
    if buffer_nonempty t tid then begin
      insert_info infos cand ~lo:!k !k
        { tid = drain_tid tid; index = !k; next = drain_footprint t tid }
        (e + tid);
      incr k
    end
  done;
  let lo = !k in
  for i = 0 to Vec.length t.pbuf - 1 do
    if t.pb_ok.(i) then begin
      insert_info infos cand ~lo !k
        { tid = persist_tid (Vec.get t.pbuf i).pb_addr;
          index = !k;
          next = pdrain_next }
        (e + nt + i);
      incr k
    end
  done;
  infos

(* Draw the next step as a candidate, or -1 when nothing is runnable.
   Under [Guided] this first reports the step that just ended to
   [on_step], then opens the drawn one.  Round-robin keeps its
   deterministic shape under TSO: it always takes the run queue's
   front (a drain-requiring operation drains its own buffer in place),
   and leftover buffers drain in tid order once the queue empties,
   then persistence-buffer entries oldest-first. *)
let draw t =
  match t.runq with
  | Fifo q ->
    if t.own >= 0 || not (Queue.is_empty q) then 0
    else begin
      let rec first tid =
        if tid >= t.next_tid then
          if Vec.is_empty t.pbuf then -1 else t.next_tid + pb_oldest t
        else if buffer_nonempty t tid then tid
        else first (tid + 1)
      in
      first 0
    end
  | Bag (v, rng) ->
    let n = count_picks t v in
    if n = 0 then -1 else nth_pick t v (Random.State.int rng n)
  | Script_bag (v, s) ->
    let n = count_picks t v in
    if n = 0 then -1
    else begin
      let idx =
        match s.forced with
        | i :: rest ->
          s.forced <- rest;
          if i < 0 || i >= n then
            raise
              (Script_out_of_range
                 { decision = List.length s.log; choice = i; runnable = n });
          i
        | [] -> 0
      in
      s.log <- (idx, n) :: s.log;
      nth_pick t v idx
    end
  | Guided_bag (v, g) ->
    let ended = t.step_tid in
    if ended >= 0 then begin
      t.step_tid <- -1;
      g.on_step ended (List.rev t.step_log)
    end;
    let n = count_picks t v in
    if n = 0 then -1
    else begin
      let infos = guided_infos t v n in
      let tid = g.choose infos in
      let rec find i =
        if i >= n then
          invalid_arg
            (Printf.sprintf "Machine: guide chose tid %d, which is not runnable"
               tid)
        else if infos.(i).tid = tid then t.cand.(i)
        else find (i + 1)
      in
      let c = find 0 in
      t.step_tid <- tid;
      t.step_log <- [];
      c
    end

let queued t =
  match t.runq with
  | Fifo q -> Queue.length q + Bool.to_int (t.own >= 0)
  | Bag (v, _) | Script_bag (v, _) | Guided_bag (v, _) -> queued_in t v

let take t c =
  match t.runq with
  | Fifo q -> Queue.take q
  | Bag (v, _) | Script_bag (v, _) | Guided_bag (v, _) -> Vec.swap_remove v c

(* Run buffer-drain candidate [c] of a choice set with [e] queued
   entries. *)
let drain t c e =
  if c < e + t.next_tid then drain_one t (c - e) else pdrain t (c - e - t.next_tid)

(* Acquire [l] for [tid]: true when granted, false when it is held.
   The blocked attempt emits no event, but the step still read the
   lock word: it is recorded for conflict analyses.  The caller parks
   the thread's grant entry on [l]. *)
let acquire t tid l =
  match l.owner with
  | None ->
    grant t tid l;
    true
  | Some owner when owner = tid ->
    invalid_arg "Machine.lock: lock is not reentrant"
  | Some _ ->
    note_access t { addr = l.word; size = 8; write = true };
    Hashtbl.replace t.blocked tid ();
    false

(* What a parked acquire becomes once its lock is handed over. *)
let grant_entry tid k = { tid; next = None; drains = false; op = Yield; k }

(* The scheduling decision, made in the calling thread's context: its
   pending operation [op] holds the [own] slot, the run-queue slot an
   entry pushed now would take, and each policy draws as over the
   queue.  A step that goes to the caller runs in place and returns the
   operation's value; a buffer drain runs in place and the draw
   repeats.  Only a step of another thread, or an acquire that blocks,
   suspends the caller, whose entry then takes the slot: the scheduler
   runs the drawn step ([decided]) without drawing again, and the
   caller resumes with its operation's value when its entry is
   drawn. *)
let rec await : type a. t -> a op -> a =
 fun t op ->
  let c = draw t in
  let queued = queued t in
  if c >= queued then begin
    drain t c queued;
    await t op
  end
  else begin
    let tid = t.own and drains = t.own_drains and next = t.own_next in
    t.own <- -1;
    (* the [own] slot is the last queued one: round-robin's back, which
       it draws as its front only when nothing else is queued *)
    if c = queued - 1 then begin
      if drains then drain_all t tid;
      match op with
      | Lock_op l ->
        if not (acquire t tid l) then
          perform
            (Suspend (fun k -> Queue.push (grant_entry tid k) l.waiters))
      | op -> exec t tid op
    end
    else begin
      t.decided <- c;
      perform (Suspend (fun k -> push t (Entry { tid; next; drains; op; k })))
    end
  end

(* A scheduling-point operation of thread [tid]. *)
let sched t tid ~drains next op =
  t.own <- tid;
  t.own_drains <- drains;
  if guided t then t.own_next <- next;
  await t op

(* A fence or barrier commits pending flushes on a synchronous-Px86
   machine, which is visible to other threads' crash outcomes, so it is
   a scheduling point exactly when it commits. *)
let commit_point t tid op =
  match commit_footprint t tid None with
  | Some _ as fp -> sched t tid ~drains:false fp op
  | None -> exec t tid op

let dispatch : type a. t -> int -> a op -> a =
 fun t tid op ->
  let tso = t.model = Tso in
  match op with
  | Lock_op _ ->
    (* under TSO the acquire is a locked instruction: it waits for the
       thread's own buffer to drain first; granting commits pending
       flushes like a fence (RMW-as-fence) *)
    sched t tid ~drains:tso (commit_footprint t tid (footprint t op)) op
  (* Operations that touch no shared state are not scheduling points:
     reordering them against other threads' events is unobservable, so
     executing them inline is a sound partial-order reduction — it
     keeps systematic exploration (Explore, Check.Dpor) over memory
     accesses only. *)
  | New_strand _ | Label _ | Malloc _ | Free _ -> exec t tid op
  | Store { addr; size; value } when tso ->
    (* a TSO store issues into the thread's private buffer: invisible
       to other threads until it drains, so issuing inline (no
       scheduling point, no event) is the same partial-order reduction
       — the drain step is where the interleaving choice lives *)
    push_store t tid ~addr ~size ~value
  | Flush_op { kind; addr } when tso ->
    (* clflushopt/clwb enter the store buffer like stores.  (FIFO
       draining makes them slightly stronger than real clflushopt,
       which may overtake earlier stores to other lines; the fence
       semantics the analyses rely on are unaffected.) *)
    push_flush t tid ~kind ~addr
  | Persist_barrier _ when t.barrier = Flush_sfence ->
    (* flush+sfence annotation (NVTraverse-style Px86): the barrier
       expands into clflushopt of every line this thread dirtied since
       its previous barrier, followed by an sfence.  Under TSO the
       flushes enter the store buffer in program order and the fence
       waits for it to drain, exactly as if the workload had issued
       them itself. *)
    let lines = take_dirty t tid in
    if tso then begin
      List.iter
        (fun addr -> push_flush t tid ~kind:Event.Clflushopt ~addr)
        lines;
      sched t tid ~drains:true (commit_footprint t tid None)
        (Fence_op Event.Sfence)
    end
    else begin
      List.iter
        (fun addr -> note_flush t tid ~kind:Event.Clflushopt ~addr)
        lines;
      commit_point t tid (Fence_op Event.Sfence)
    end
  | Persist_barrier _ | Fence_op _ ->
    (* under TSO mfence-like: wait for the buffer, then mark the epoch *)
    if tso then sched t tid ~drains:true (commit_footprint t tid None) op
    else commit_point t tid op
  | Rmw _ ->
    (* locked instruction: drains first (TSO) and commits pending
       flushes like a fence (RMW-as-fence) *)
    sched t tid ~drains:tso (commit_footprint t tid (footprint t op)) op
  | Unlock_op _ ->
    (* write-through release: drains first (TSO) *)
    sched t tid ~drains:tso (footprint t op) op
  | Self | Load _ | Store _ | Flush_op _ | Yield ->
    sched t tid ~drains:false (footprint t op) op

(* Threads run under this handler, which only hands a suspending
   thread's continuation to its [Suspend]'s parking function: every
   scheduling decision is made before the suspension. *)
let handler =
  { retc = (fun () -> ());
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend park -> Some (park : (a, unit) continuation -> unit)
        | _ -> None) }

(* The calling context of this domain: the machine whose [run] is
   active and the thread whose code is running, or -1 while the
   scheduler itself runs (draws, steps, sinks, guides).  Per domain, so
   machines on different domains never see each other's threads. *)
type context = {
  mutable machine : t option;
  mutable running : int;
}

let context = Domain.DLS.new_key (fun () -> { machine = None; running = -1 })

(* Resume queued entry [e] from the scheduler loop: perform its
   operation and continue its thread with the value. *)
let resume t cx (Entry e) =
  if e.drains then drain_all t e.tid;
  match e.op with
  | Lock_op l -> (
    match acquire t e.tid l with
    | true ->
      cx.running <- e.tid;
      continue e.k ()
    | false -> Queue.push (grant_entry e.tid e.k) l.waiters
    | exception (Invalid_argument _ as x) ->
      cx.running <- e.tid;
      discontinue e.k x)
  | op ->
    let v = exec t e.tid op in
    cx.running <- e.tid;
    continue e.k v

(* A spawned thread's fiber starts at once and suspends before its
   first operation, queueing its start entry. *)
let spawn t body =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  match_with
    (fun () ->
      perform
        (Suspend
           (fun k ->
             push t
               (Entry { tid; next = None; drains = false; op = Yield; k })));
      body ())
    () handler;
  tid

let run t =
  let cx = Domain.DLS.get context in
  let outer = cx.machine and outer_running = cx.running in
  cx.machine <- Some t;
  cx.running <- -1;
  let rec loop () =
    let c = if t.decided >= 0 then t.decided else draw t in
    t.decided <- -1;
    if c >= 0 then begin
      let queued = queued t in
      if c < queued then begin
        resume t cx (take t c);
        cx.running <- -1
      end
      else drain t c queued;
      loop ()
    end
    else if Hashtbl.length t.blocked > 0 then
      raise (Deadlock (Hashtbl.fold (fun tid () acc -> tid :: acc) t.blocked []))
  in
  Fun.protect loop ~finally:(fun () ->
      cx.machine <- outer;
      cx.running <- outer_running)

(* Thread-context wrappers: the scheduler code runs with the context's
   [running] cleared, so a sink or guide that calls back into a
   thread-context operation gets [Effect.Unhandled], as outside [run]. *)

let call : type a. a op -> a =
 fun op ->
  let cx = Domain.DLS.get context in
  let tid = cx.running in
  match cx.machine with
  | Some t when tid >= 0 ->
    cx.running <- -1;
    let v = dispatch t tid op in
    cx.running <- tid;
    v
  | Some _ | None -> perform (E op)

let self () = call Self
let load addr = call (Load { addr; size = 8 })
let load_sz ~size addr = call (Load { addr; size })
let store addr value = call (Store { addr; size = 8; value })
let store_sz ~size addr value = call (Store { addr; size; value })
let rmw addr f = call (Rmw { addr; f })
let fetch_add addr n = rmw addr (fun v -> Int64.add v n)
(* A site carries its two operations, built once, so that issuing a
   barrier or new-strand allocates no operation. *)
type site = {
  name : Event.site;
  barrier_op : unit op;
  strand_op : unit op;
}

let site name =
  { name; barrier_op = Persist_barrier name; strand_op = New_strand name }

let site_name s = s.name
let unnamed = site ""
let persist_barrier_at s = call s.barrier_op
let new_strand_at s = call s.strand_op
let persist_barrier () = persist_barrier_at unnamed
let new_strand () = new_strand_at unnamed
let label s = call (Label s)
let malloc space size = call (Malloc { space; size })
let mfree addr = call (Free addr)
let yield () = call Yield
let lock l = call (Lock_op l)
let unlock l = call (Unlock_op l)
let clflushopt addr = call (Flush_op { kind = Event.Clflushopt; addr })
let clwb addr = call (Flush_op { kind = Event.Clwb; addr })
let sfence () = call (Fence_op Event.Sfence)
let mfence () = call (Fence_op Event.Mfence)

let mutex t =
  let word = Memory.alloc t.mem Addr.Volatile 8 in
  { word; owner = None; waiters = Queue.create () }

(* [COPY]: maximal aligned word stores.  [addr] must be 8-byte
   aligned; the tail is stored with progressively smaller accesses. *)
let store_bytes addr data =
  if not (Addr.is_aligned ~size:8 addr) then
    invalid_arg "Machine.store_bytes: address must be 8-byte aligned";
  let n = Bytes.length data in
  let off = ref 0 in
  while n - !off >= 8 do
    store (addr + !off) (Bytes.get_int64_le data !off);
    off := !off + 8
  done;
  let store_tail size get =
    if n - !off >= size then begin
      store_sz ~size (addr + !off) (get data !off);
      off := !off + size
    end
  in
  store_tail 4 (fun b o -> Int64.of_int32 (Bytes.get_int32_le b o));
  store_tail 2 (fun b o -> Int64.of_int (Bytes.get_uint16_le b o));
  store_tail 1 (fun b o -> Int64.of_int (Bytes.get_uint8 b o))

let load_bytes addr n =
  if not (Addr.is_aligned ~size:8 addr) then
    invalid_arg "Machine.load_bytes: address must be 8-byte aligned";
  let out = Bytes.create n in
  let off = ref 0 in
  while n - !off >= 8 do
    Bytes.set_int64_le out !off (load (addr + !off));
    off := !off + 8
  done;
  let load_tail size set =
    if n - !off >= size then begin
      set out !off (load_sz ~size (addr + !off));
      off := !off + size
    end
  in
  load_tail 4 (fun b o v -> Bytes.set_int32_le b o (Int64.to_int32 v));
  load_tail 2 (fun b o v -> Bytes.set_uint16_le b o (Int64.to_int v land 0xffff));
  load_tail 1 (fun b o v -> Bytes.set_uint8 b o (Int64.to_int v land 0xff));
  out

(* Declared last: its [model] / [persistence] fields would otherwise
   shadow those of the machine state above. *)
type mconfig = {
  mlabel : string;
  model : model;
  persistence : persistence;
}

let sc_config = { mlabel = "sc"; model = Sc; persistence = Psync }
let tso_sync_config = { mlabel = "tso-sync"; model = Tso; persistence = Psync }

let tso_buffered_config =
  { mlabel = "tso-buffered"; model = Tso; persistence = Pbuffered }

let all_configs = [ sc_config; tso_sync_config; tso_buffered_config ]
