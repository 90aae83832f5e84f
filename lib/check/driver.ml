module M = Memsim.Machine
module Ps = Persistency
module Om = Obs.Metrics

let m_distinct = Om.counter Om.default "check.distinct_graphs"
let m_duplicates = Om.counter Om.default "check.duplicate_graphs"
let m_sched_rate = Om.gauge_max Om.default "check.schedules_per_sec"

type instance = {
  graph : Ps.Persist_graph.t;
  capacity : int;
  observer : Recovery.cut_observer;
}

type report = {
  stats : Dpor.stats;
  distinct : int;
  checked : int;
  prefixes : int;
  failure : (Schedule.t * Recovery.failure) option;
}

let check_run ~strategy inst =
  Recovery.check_cuts ~graph:inst.graph ~capacity:inst.capacity
    ~strategy:(strategy inst.graph) inst.observer

let check ?max_schedules ~strategy run =
  let seen = Hashtbl.create 64 in
  let prefixes = ref 0 in
  let failure = ref None in
  (* Total schedules are unknown up front, so the heartbeat shows a
     running count and rate rather than an ETA. *)
  let prog = Obs.Perfscope.progress_start "dpor schedules" in
  let on_exec sched inst =
    Obs.Perfscope.progress_step prog;
    let fp = Ps.Graph_export.fingerprint inst.graph in
    if Hashtbl.mem seen fp then begin
      Om.incr m_duplicates;
      Dpor.Continue
    end
    else begin
      Hashtbl.add seen fp ();
      Om.incr m_distinct;
      match check_run ~strategy inst with
      | Ok r ->
        prefixes := !prefixes + r.Recovery.prefixes;
        Dpor.Continue
      | Error f ->
        prefixes := !prefixes + f.Recovery.prefixes_ok + 1;
        failure := Some (sched, f);
        Dpor.Stop
    end
  in
  let stats, span =
    let span = Obs.Perfscope.start () in
    let stats = Dpor.explore ?max_schedules ~on_exec run in
    (stats, Obs.Perfscope.finish span)
  in
  Obs.Perfscope.progress_finish prog;
  Obs.Perfscope.throughput m_sched_rate ~items:stats.Dpor.schedules
    ~seconds:span.Obs.Perfscope.wall_s;
  { stats;
    distinct = Hashtbl.length seen;
    checked = Hashtbl.length seen;
    prefixes = !prefixes;
    failure = !failure }

type ('v, 'p, 'r, 'a) family = {
  name : string;
  variant_name : 'v -> string;
  clean : Ps.Config.mode -> Workloads.Queue.annotation -> 'v;
  drop : 'v;
  params : threads:int -> depth:int -> seed:int -> M.mconfig -> 'v -> 'p;
  run : 'p -> M.policy -> sink:(Memsim.Event.t -> unit) -> 'r;
  recover : 'p -> 'r -> bytes -> ('a, string) result;
  image_capacity : 'r -> int;
  effect_of : 'p -> 'r -> tid:int -> index:int -> Dlin.effect_;
  dlin :
    ops:Dlin.op list -> cut:Ps.Iset.t -> recovered:'a -> (unit, string) result;
}

type packed = Family : (_, _, _, _) family -> packed

(* The history tee lets the observer layer the durable-linearizability
   oracle over the structural invariant: [recover] runs first (its
   failure messages are the pinned, replayable ones), then [dlin].  The
   operation history and the decoder are built by the observer's first
   call, so an execution whose graph a check has already seen pays for
   neither. *)
let instance f params cfg policy =
  let hist = Dlin.History.create () in
  let engine, result =
    Ps.Engine.run { cfg with Ps.Config.record_graph = true } (fun ~sink ->
        f.run params policy ~sink:(Dlin.History.sink hist sink))
  in
  let ops =
    lazy
      (Dlin.History.ops hist
         ~node_of_persist:(Ps.Engine.node_of_persist_event engine)
         ~effect_of:(f.effect_of params result))
  in
  let recover = lazy (f.recover params result) in
  { graph = Option.get (Ps.Engine.graph engine);
    capacity = f.image_capacity result;
    observer =
      (fun ~cut image ->
        match Lazy.force recover image with
        | Error _ as e -> e
        | Ok recovered -> f.dlin ~ops:(Lazy.force ops) ~cut ~recovered) }

(* On a TSO machine the paper's atomic persist barrier is not an
   instruction x86 offers: realize it as the Px86 flush+sfence
   annotation instead. *)
let barrier_for = function M.Sc -> M.Pbarrier | M.Tso -> M.Flush_sfence

let queue =
  let module Q = Workloads.Queue in
  let module R = Workloads.Queue_recovery in
  { name = "queue"; variant_name = Q.annotation_name;
    clean = (fun _ annotation -> annotation);
    drop = Q.Buggy_epoch;
    (* CWL, 16-byte entries, capacity exactly threads x depth: no
       wrap-around, as Queue_recovery requires *)
    params =
      (fun ~threads ~depth ~seed (mc : M.mconfig) annotation ->
        { Q.design = Cwl; annotation; threads; inserts_per_thread = depth;
          entry_size = 16; capacity_entries = threads * depth; seed;
          policy = M.Round_robin; machine = mc.model;
          persistence = mc.persistence; barrier = barrier_for mc.model });
    run = (fun params policy -> Q.run { params with Q.policy });
    recover =
      (fun params r image ->
        Result.bind (R.recover ~params ~layout:r.Q.layout image)
          (fun { entries; _ } ->
            Result.map (fun () -> entries) (R.check_fifo entries)));
    image_capacity = (fun r -> R.image_capacity r.Q.layout);
    effect_of = (fun _ _ ~tid ~index -> Dlin.Enq { etid = tid; eseq = index });
    dlin = Dlin.check_fifo }

let kv =
  { name = "kv"; variant_name = Kv.discipline_name;
    clean = (fun mode _ -> Kv.discipline_for mode);
    drop = Kv.Buggy_undo;
    (* puts over 2 keys hashed into a single bucket group: maximal lock
       and slot contention, so the adversarial interleavings (the ones
       that expose Buggy_undo) come within a small schedule budget *)
    params =
      (fun ~threads ~depth ~seed (mc : M.mconfig) discipline ->
        { Kv.discipline; threads; ops_per_thread = depth; get_every = 0;
          key_space = 2; groups = 1; group_size = 4; seed;
          policy = M.Round_robin; dist = Workloads.Keygen.Uniform;
          machine = mc.model; persistence = mc.persistence;
          barrier = barrier_for mc.model });
    run = (fun params policy -> Kv.run { params with Kv.policy });
    recover =
      (fun params r ->
        let recover = Kv_recovery.recover ~params ~layout:r.Kv.layout in
        fun image ->
          Result.map (fun r -> r.Kv_recovery.bindings) (recover image));
    image_capacity = (fun r -> Kv_recovery.image_capacity r.Kv.layout);
    effect_of =
      (fun params _ ~tid ~index ->
        match Kv.op_of params ~tid ~seq:index with
        | Kv.Put { key; value } -> Dlin.Put { key; value }
        | Kv.Get _ -> Dlin.Read);
    dlin = Dlin.check_map }

let lockfree =
  let module C = Lockfree.Cas_set in
  let module R = Lockfree.Set_recovery in
  { name = "lockfree"; variant_name = C.discipline_name;
    clean = (fun _ _ -> C.Nvtraverse);
    drop = C.Buggy_traverse;
    params =
      (fun ~threads ~depth ~seed (mc : M.mconfig) discipline ->
        { (C.explore_params ~threads ~depth ~machine:mc.model
             ~persistence:mc.persistence discipline)
          with C.seed });
    run = (fun params policy -> C.run { params with C.policy });
    recover =
      (fun params r image ->
        Result.map (fun r -> r.R.keys)
          (R.recover ~params ~layout:r.C.layout image));
    image_capacity = (fun r -> R.image_capacity r.C.layout);
    effect_of =
      (fun params r ~tid ~index ->
        Dlin.Add
          { key = r.C.keys.((tid * params.C.inserts_per_thread) + index) });
    dlin = Dlin.check_set }

let families = [ Family queue; Family kv; Family lockfree ]
let lockfree_instance params = instance lockfree params

(* Group commit has no operation history to linearize: the marker
   pins the exact recovered state, so the batch-boundary equality is
   the whole observer. *)
let group_instance ~layout ~batches graph =
  let check = Kv_recovery.check_group ~layout ~batches in
  { graph;
    capacity = Kv_recovery.group_image_capacity layout;
    observer = (fun ~cut:_ image -> check image) }

exception Bad_schedule of string

let check_schedule ~strategy sched run =
  let script = Schedule.to_script sched in
  let n = Schedule.length sched in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_schedule msg)) fmt in
  match run (M.Scripted script) with
  | exception M.Script_out_of_range { decision; choice; runnable } ->
    bad
      "decision %d of %d is index %d, but only %d steps were runnable there \
       (%d decisions consumed)"
      (decision + 1) n choice runnable decision
  | inst ->
    let consumed = List.length (M.script_choices script) in
    if consumed < n then
      bad "the run ended after consuming %d of the schedule's %d decisions"
        consumed n
    else check_run ~strategy inst
