(* repro-sweep: Table 1's 16 queue cells and the lock-free sweep's 18
   cells, streamed from the machine into the engine with no graph, on
   one domain.  Only the machine, engine and sweep layers run. *)

module C = Lockfree.Cas_set
module E = Experiments.Lockfree_exp
module R = Experiments.Run
module Ps = Persistency

let name = "repro-sweep"
let work_name = "sim_events_per_s"
let work_unit = "events/s"

(* Table 1 total inserts per cell, and lock-free inserts per thread. *)
let table1_inserts = 800
let lockfree_inserts = 32

type params =
  | Queue of Workloads.Queue.params
  | Set of C.params

type cell = {
  label : string;
  params : params;
  cfg : Ps.Config.t;
}

type state = cell list

(* The per-cell results both rounds produce; all of them are pinned. *)
type stats = {
  events : int;
  persist_events : int;
  persist_ops : int;
  coalesced : int;
  critical_path : int;
  cp_per_insert : float;
}

let setup ~seed _ =
  let table1 =
    List.concat_map
      (fun design ->
        List.concat_map
          (fun threads ->
            List.map
              (fun (point : R.model_point) ->
                { label =
                    Printf.sprintf "%s/%s/%dT"
                      (Workloads.Queue.design_name design)
                      point.R.label threads;
                  params =
                    Queue
                      (R.queue_params ~design ~threads
                         ~total_inserts:table1_inserts ~seed point);
                  cfg = Ps.Config.make point.R.mode })
              R.table1_models)
          [ 1; 8 ])
      [ Workloads.Queue.Cwl; Workloads.Queue.Tlc ]
  in
  let lockfree =
    List.concat_map
      (fun (mc : E.mconfig) ->
        List.concat_map
          (fun threads ->
            List.map
              (fun d ->
                { label =
                    Printf.sprintf "lockfree/%s/%s/%dT" mc.E.mlabel
                      (C.discipline_name d) threads;
                  params =
                    Set
                      (E.set_params ~threads ~inserts:lockfree_inserts ~seed
                         ~mconfig:mc d);
                  cfg = Ps.Config.make Ps.Config.Epoch })
              [ C.Flush_all; C.Nvtraverse ])
          [ 1; 2; 4 ])
      E.all_mconfigs
  in
  table1 @ lockfree

let outcome cells =
  { Workload.outputs =
      List.concat_map
        (fun (label, s) ->
          [ (label ^ ".critical_path", string_of_int s.critical_path);
            (label ^ ".persist_events", string_of_int s.persist_events);
            (label ^ ".persist_ops", string_of_int s.persist_ops);
            (label ^ ".cp_per_insert", Printf.sprintf "%.6f" s.cp_per_insert)
          ])
        cells;
    work =
      float_of_int (List.fold_left (fun n (_, s) -> n + s.events) 0 cells) }

let label _ c = c.label

let round cells =
  let results, _ =
    Parallel.Pool.map_cells_profiled ~domains:1 ~label
      (fun c ->
        let s =
          match c.params with
          | Queue p ->
            let m = R.analyze p c.cfg in
            { events = m.R.events; persist_events = m.R.persist_events;
              persist_ops = m.R.persist_ops; coalesced = m.R.coalesced;
              critical_path = m.R.critical_path;
              cp_per_insert = m.R.cp_per_insert }
          | Set p ->
            let m = E.analyze p c.cfg in
            { events = m.E.events; persist_events = m.E.persist_events;
              persist_ops = m.E.persist_ops; coalesced = m.E.coalesced;
              critical_path = m.E.critical_path;
              cp_per_insert = m.E.cp_per_insert }
        in
        (c.label, s))
      cells
  in
  outcome results

(* Record each cell's trace once, then replay it through the engine:
   the machine and the engine are timed apart, and the engine sees the
   same events in the same order as in the streamed round. *)
let traced_cell lr c =
  Layers.span lr c.label @@ fun () ->
  let trace = Memsim.Trace.create () in
  let sink = Memsim.Trace.sink trace in
  let events =
    Layers.span ~metric:"machine.busy_s" lr "machine" (fun () ->
        match c.params with
        | Queue p -> (Workloads.Queue.run p ~sink).Workloads.Queue.events
        | Set p -> (C.run p ~sink).C.events)
  in
  let engine = Ps.Engine.create c.cfg in
  Layers.span ~metric:"engine.busy_s" lr "engine" (fun () ->
      Ps.Engine.observe_trace engine trace);
  let s =
    { events;
      persist_events = Ps.Engine.persist_events engine;
      persist_ops = Ps.Engine.persist_ops engine;
      coalesced = Ps.Engine.coalesced engine;
      critical_path = Ps.Engine.critical_path engine;
      cp_per_insert = Ps.Engine.cp_per_label engine "insert" }
  in
  Layers.add lr "machine.events" (float_of_int s.events);
  Layers.add lr "engine.persist_events" (float_of_int s.persist_events);
  Layers.add lr "engine.persist_ops" (float_of_int s.persist_ops);
  Layers.add lr "engine.coalesced" (float_of_int s.coalesced);
  Layers.add lr "engine.critical_path" (float_of_int s.critical_path);
  (c.label, s)

let traced_round cells lr =
  let results, profile =
    Layers.span lr "sweep" (fun () ->
        Parallel.Pool.map_cells_profiled ~domains:1 ~label (traced_cell lr)
          cells)
  in
  let g = Layers.get lr in
  let times = List.map snd profile.Parallel.Pool.cells in
  let sum = List.fold_left ( +. ) 0. times in
  let cells_n = float_of_int (List.length times) in
  let max_cell = List.fold_left Float.max 0. times in
  Layers.set lr "machine.events_per_s"
    (Layers.ratio (g "machine.events") (g "machine.busy_s"));
  Layers.set lr "engine.coalesce_ratio"
    (Layers.ratio (g "engine.coalesced") (g "engine.persist_events"));
  Layers.set lr "sweep.cells" cells_n;
  Layers.set lr "sweep.cell_sum_s" sum;
  Layers.set lr "sweep.cell_max_s" max_cell;
  Layers.set lr "sweep.imbalance" (Layers.ratio max_cell (sum /. cells_n));
  Layers.set lr "sweep.self_s" (profile.Parallel.Pool.wall_seconds -. sum);
  Layers.set lr "attributed_s"
    (g "machine.busy_s" +. g "engine.busy_s" +. g "sweep.self_s");
  outcome results

let final_check _ = []
