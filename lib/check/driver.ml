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

(* Every instance runs its workload with a history tee, so the
   observer can layer the durable-linearizability oracle ({!Dlin})
   over the family's structural invariant: the invariant runs first
   (its failure messages are the pinned, replayable ones), then the
   recovered abstract state is checked against the operations the cut
   classifies as fully / partially / not durable. *)
let instrumented_run run cfg =
  let hist = Dlin.History.create () in
  let engine, result =
    Ps.Engine.run { cfg with Ps.Config.record_graph = true } (fun ~sink ->
        run ~sink:(Dlin.History.sink hist sink))
  in
  let ops effect_of =
    Dlin.History.ops hist
      ~node_of_persist:(Ps.Engine.node_of_persist_event engine)
      ~effect_of
  in
  (result, Option.get (Ps.Engine.graph engine), ops)

let queue_instance params cfg policy =
  let params = { params with Workloads.Queue.policy } in
  let result, graph, history =
    instrumented_run (Workloads.Queue.run params) cfg
  in
  let layout = result.Workloads.Queue.layout in
  let ops =
    history (fun ~tid ~index ~label:_ -> Dlin.Enq { etid = tid; eseq = index })
  in
  let observer ~cut image =
    match Workloads.Queue_recovery.recover ~params ~layout image with
    | Error _ as e -> e
    | Ok { entries; _ } -> (
      match Workloads.Queue_recovery.check_fifo entries with
      | Error _ as e -> e
      | Ok () -> Dlin.check_fifo ~ops ~cut ~recovered:entries)
  in
  { graph;
    capacity = Workloads.Queue_recovery.image_capacity layout;
    observer }

let kv_instance params cfg policy =
  let params = { params with Kv.policy } in
  let result, graph, history =
    instrumented_run (Kv.run params) cfg
  in
  let layout = result.Kv.layout in
  let ops =
    history (fun ~tid ~index ~label:_ ->
        match Kv.op_of params ~tid ~seq:index with
        | Kv.Put { key; value } -> Dlin.Put { key; value }
        | Kv.Get _ -> Dlin.Read)
  in
  let recover = Kv_recovery.recover ~params ~layout in
  let observer ~cut image =
    match recover image with
    | Error _ as e -> e
    | Ok r -> Dlin.check_map ~ops ~cut ~recovered:r.Kv_recovery.bindings
  in
  { graph; capacity = Kv_recovery.image_capacity layout; observer }

let lockfree_instance params cfg policy =
  let params = { params with Lockfree.Cas_set.policy } in
  let result, graph, history =
    instrumented_run (Lockfree.Cas_set.run params) cfg
  in
  let layout = result.Lockfree.Cas_set.layout in
  let keys = result.Lockfree.Cas_set.keys in
  let ops =
    history (fun ~tid ~index ~label:_ ->
        Dlin.Add
          { key = keys.((tid * params.Lockfree.Cas_set.inserts_per_thread)
                        + index) })
  in
  let observer ~cut image =
    match Lockfree.Set_recovery.recover ~params ~layout image with
    | Error _ as e -> e
    | Ok r ->
      Dlin.check_set ~ops ~cut ~recovered:r.Lockfree.Set_recovery.keys
  in
  { graph; capacity = Lockfree.Set_recovery.image_capacity layout; observer }

(* Group commit has no operation history to linearize: the marker
   pins the exact recovered state, so the batch-boundary equality is
   the whole observer. *)
let group_instance ~layout ~batches graph =
  let check = Kv_recovery.check_group ~layout ~batches in
  { graph;
    capacity = Kv_recovery.group_image_capacity layout;
    observer = (fun ~cut:_ image -> check image) }

exception Bad_schedule of string

let replay sched run =
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
    else inst

let check_schedule ~strategy sched run = check_run ~strategy (replay sched run)
