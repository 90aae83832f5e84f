module Event = Memsim.Event
module M = Obs.Metrics

(* The simulator is already a metrics machine; rather than pay a
   per-access branch, the whole tally is published into the registry in
   one shot at [finish]. *)
let m_runs = M.counter M.default "cachesim.runs"
let m_persists = M.counter M.default "cachesim.persists"
let m_coalesced = M.counter M.default "cachesim.cache_coalesced"
let m_writebacks = M.counter M.default "cachesim.writebacks"
let m_conflict = M.counter M.default "cachesim.conflict_flushes"
let m_eviction = M.counter M.default "cachesim.eviction_flushes"
let m_max_wear = M.gauge_max M.default "cachesim.max_line_wear"

type metrics = {
  persists : int;
  cache_coalesced : int;
  writebacks : int;
  conflict_flushes : int;
  intra_thread_flushes : int;
  eviction_flushes : int;
  final_flushes : int;
  max_line_wear : int;
  wear_lines : int;
}

let write_amplification m ~line_bytes ~stored_bytes =
  if stored_bytes = 0 then 0.
  else float_of_int (m.writebacks * line_bytes) /. float_of_int stored_bytes

(* Line metadata: the thread and epoch of the last persist into it.
   Volatile lines are cached too but carry no epoch obligations. *)
type tag = {
  owner : int;
  epoch : int;
  persistent : bool;
}

type tstate = {
  mutable cur_epoch : int;
  (* in-flight epochs, oldest first: epoch number and its dirty
     persistent line bases (a base may appear once; the line is only in
     one epoch at a time) *)
  mutable in_flight : (int * int list ref) list;
}

type t = {
  cache : tag Cache.t;
  threads : (int, tstate) Hashtbl.t;
  wear : (int, int ref) Hashtbl.t;  (* line base -> writebacks *)
  mutable persists : int;
  mutable cache_coalesced : int;
  mutable writebacks : int;
  mutable conflict_flushes : int;
  mutable intra_thread_flushes : int;
  mutable eviction_flushes : int;
  mutable final_flushes : int;
}

let create ?(geometry = Cache.default_geometry) () =
  { cache = Cache.create geometry;
    threads = Hashtbl.create 8;
    wear = Hashtbl.create 1024;
    persists = 0;
    cache_coalesced = 0;
    writebacks = 0;
    conflict_flushes = 0;
    intra_thread_flushes = 0;
    eviction_flushes = 0;
    final_flushes = 0 }

let thread t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some ts -> ts
  | None ->
    let ts = { cur_epoch = 0; in_flight = [] } in
    Hashtbl.add t.threads tid ts;
    ts

let record_wear t base =
  match Hashtbl.find_opt t.wear base with
  | Some r -> incr r
  | None -> Hashtbl.add t.wear base (ref 1)

(* Write back one line if it is still resident and dirty. *)
let writeback_line t base =
  match Cache.find t.cache base with
  | Some line when line.Cache.dirty ->
    line.Cache.dirty <- false;
    t.writebacks <- t.writebacks + 1;
    record_wear t base
  | Some _ | None -> ()

(* Flush all in-flight epochs of [tid] up to and including [epoch], in
   epoch order; [why] attributes the cause. *)
let flush_up_to t tid epoch ~why =
  let ts = thread t tid in
  let to_flush, remaining =
    List.partition (fun (e, _) -> e <= epoch) ts.in_flight
  in
  ts.in_flight <- remaining;
  List.iter
    (fun (_, lines) ->
      (match why with
      | `Conflict -> t.conflict_flushes <- t.conflict_flushes + 1
      | `Intra -> t.intra_thread_flushes <- t.intra_thread_flushes + 1
      | `Eviction -> t.eviction_flushes <- t.eviction_flushes + 1
      | `Final -> t.final_flushes <- t.final_flushes + 1);
      List.iter (writeback_line t) !lines)
    to_flush

(* An access touched a line whose tag belongs to an in-flight epoch of
   another thread (or an older epoch of the same thread, for writes). *)
let resolve_tag_obligations t tid ~is_store (line : tag Cache.line) =
  let tag = line.Cache.meta in
  if tag.persistent && line.Cache.dirty then begin
    if tag.owner <> tid then flush_up_to t tag.owner tag.epoch ~why:`Conflict
    else if is_store && tag.epoch < (thread t tid).cur_epoch then
      flush_up_to t tid tag.epoch ~why:`Intra
  end

let evicted_obligations t (victim : tag Cache.line option) =
  match victim with
  | Some line when line.Cache.dirty && line.Cache.meta.persistent ->
    (* order to NVRAM: flush the owner's epochs up to the victim's,
       which writes the victim back too (it is no longer resident, so
       write it back directly) *)
    let tag = line.Cache.meta in
    (* older epochs first, then the victim itself *)
    flush_up_to t tag.owner (tag.epoch - 1) ~why:`Eviction;
    t.writebacks <- t.writebacks + 1;
    record_wear t line.Cache.base;
    (* remove the line from its epoch's list lazily: writeback_line
       skips non-resident lines, so the stale entry is harmless *)
    ()
  | Some _ | None -> ()

let track_in_epoch t tid base =
  let ts = thread t tid in
  let lines =
    match List.assoc_opt ts.cur_epoch ts.in_flight with
    | Some l -> l
    | None ->
      let l = ref [] in
      ts.in_flight <- ts.in_flight @ [ (ts.cur_epoch, l) ];
      l
  in
  if not (List.mem base !lines) then lines := base :: !lines

let access t kind (a : Event.access) =
  let is_store =
    match kind with
    | Event.Store | Event.Rmw -> true
    | Event.Load -> false
  in
  let persistent = Memsim.Addr.equal_space a.space Memsim.Addr.Persistent in
  let base = Cache.line_of_addr t.cache a.addr in
  (match Cache.find t.cache base with
  | Some line -> resolve_tag_obligations t a.tid ~is_store line
  | None -> ());
  let ts = thread t a.tid in
  let tag = { owner = a.tid; epoch = ts.cur_epoch; persistent } in
  let line, victim = Cache.insert t.cache base ~meta:tag in
  evicted_obligations t victim;
  if is_store && persistent then begin
    t.persists <- t.persists + 1;
    if
      line.Cache.dirty
      && line.Cache.meta.owner = a.tid
      && line.Cache.meta.epoch = ts.cur_epoch
      && line.Cache.meta.persistent
    then t.cache_coalesced <- t.cache_coalesced + 1
    else begin
      line.Cache.meta <- tag;
      line.Cache.dirty <- true;
      track_in_epoch t a.tid base
    end
  end
  else if is_store then line.Cache.dirty <- true

let observe t ev =
  match ev with
  | Event.Access (kind, a) -> access t kind a
  | Event.Persist_barrier { tid; _ }
  | Event.New_strand { tid; _ }
  | Event.Fence { tid; _ } ->
    (* the hardware sketch has no strand or Px86 support; a NewStrand
       or fence simply opens a new epoch *)
    let ts = thread t tid in
    ts.cur_epoch <- ts.cur_epoch + 1
  | Event.Label _ | Event.Flush _ | Event.Pdrain _ -> ()

let finish t =
  Hashtbl.iter
    (fun tid ts -> flush_up_to t tid ts.cur_epoch ~why:`Final)
    t.threads;
  let max_wear = Hashtbl.fold (fun _ r acc -> max acc !r) t.wear 0 in
  M.incr m_runs;
  M.add m_persists t.persists;
  M.add m_coalesced t.cache_coalesced;
  M.add m_writebacks t.writebacks;
  M.add m_conflict t.conflict_flushes;
  M.add m_eviction t.eviction_flushes;
  M.observe_max m_max_wear (float_of_int max_wear);
  { persists = t.persists;
    cache_coalesced = t.cache_coalesced;
    writebacks = t.writebacks;
    conflict_flushes = t.conflict_flushes;
    intra_thread_flushes = t.intra_thread_flushes;
    eviction_flushes = t.eviction_flushes;
    final_flushes = t.final_flushes;
    max_line_wear = max_wear;
    wear_lines = Hashtbl.length t.wear }

let run_trace ?geometry trace =
  let t = create ?geometry () in
  Memsim.Trace.iter (observe t) trace;
  finish t
