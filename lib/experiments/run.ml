type metrics = {
  inserts : int;
  events : int;
  persist_events : int;
  persist_ops : int;
  coalesced : int;
  critical_path : int;
  cp_per_insert : float;
  insert_order : int list;
}

let metrics_of (engine : Persistency.Engine.t) (result : Workloads.Queue.result) =
  { inserts = result.Workloads.Queue.inserts;
    events = result.Workloads.Queue.events;
    persist_events = Persistency.Engine.persist_events engine;
    persist_ops = Persistency.Engine.persist_ops engine;
    coalesced = Persistency.Engine.coalesced engine;
    critical_path = Persistency.Engine.critical_path engine;
    cp_per_insert = Persistency.Engine.cp_per_label engine "insert";
    insert_order = result.Workloads.Queue.insert_order }

(* On an SC machine with the paper's atomic barrier, a barrier or
   new-strand is no scheduling point, commits nothing and writes no
   memory, so removing a site's events from a run leaves exactly the run
   without that site: one run of every point's sites serves them all.
   On a TSO machine or with [Flush_sfence] a barrier is a fence that
   drains buffers, and the points must agree on their sites. *)
let share ?(graph = false) ~machine ~barrier produce points =
  let names on =
    List.sort_uniq String.compare (List.map Memsim.Machine.site_name on)
  in
  let all = List.concat_map fst points in
  let sink (on, cfg) =
    let e =
      Persistency.Engine.create
        (if graph then { cfg with Persistency.Config.record_graph = true }
         else cfg)
    and keep = names on in
    if keep = names all then (e, Persistency.Engine.observe e)
    else if machine <> Memsim.Machine.Sc || barrier <> Memsim.Machine.Pbarrier
    then invalid_arg "Run.share: site sets differ off SC or with Flush_sfence"
    else
      ( e,
        function
        | Memsim.Event.Persist_barrier { site; _ }
        | Memsim.Event.New_strand { site; _ }
          when not (List.mem site keep) ->
          ()
        | ev -> Persistency.Engine.observe e ev )
  in
  let engines, sinks = List.split (List.map sink points) in
  let fan =
    match sinks with [ k ] -> k | _ -> fun ev -> List.iter (fun k -> k ev) sinks
  in
  (engines, Persistency.Engine.feed (produce ~sites:all) fan)

let run_points ?graph (params : Workloads.Queue.params) points =
  share ?graph ~machine:params.machine ~barrier:params.barrier
    (fun ~sites -> Workloads.Queue.run ~sites params)
    (List.map (fun (a, cfg) -> (Workloads.Queue.sites a, cfg)) points)

let graph e = Option.get (Persistency.Engine.graph e)

let analyze_many params points =
  let engines, result = run_points params points in
  List.map (fun e -> metrics_of e result) engines

let analyze params cfg =
  List.hd (analyze_many params [ (params.Workloads.Queue.annotation, cfg) ])

let graphs params points = List.map graph (fst (run_points ~graph:true params points))

let analyze_with_graph params cfg =
  let engines, result =
    run_points ~graph:true params [ (params.Workloads.Queue.annotation, cfg) ]
  in
  let e = List.hd engines in
  (metrics_of e result, graph e, result.Workloads.Queue.layout)

type model_point = {
  label : string;
  mode : Persistency.Config.mode;
  annotation : Workloads.Queue.annotation;
}

let strict_point =
  { label = "strict";
    mode = Persistency.Config.Strict;
    annotation = Workloads.Queue.Unannotated }

let epoch_point =
  { label = "epoch";
    mode = Persistency.Config.Epoch;
    annotation = Workloads.Queue.Epoch }

let racing_point =
  { label = "racing-epochs";
    mode = Persistency.Config.Epoch;
    annotation = Workloads.Queue.Racing }

let strand_point =
  { label = "strand";
    mode = Persistency.Config.Strand;
    annotation = Workloads.Queue.Strand }

let paired point =
  (point.annotation, Persistency.Config.make point.mode)

let table1_models = [ strict_point; epoch_point; racing_point; strand_point ]
let fig3_models = [ strict_point; epoch_point; strand_point ]

let per_point cfgs points analyze =
  let rec split points results =
    match points with
    | [] -> []
    | point :: points ->
      let n = List.length (cfgs point) in
      List.filteri (fun i _ -> i < n) results
      :: split points (List.filteri (fun i _ -> i >= n) results)
  in
  split points (analyze (List.concat_map cfgs points))

let default_total_inserts = 20_000
let default_capacity = 24

let queue_params ?(design = Workloads.Queue.Cwl) ?(threads = 1)
    ?(total_inserts = default_total_inserts)
    ?(capacity_entries = default_capacity) ?(seed = 42)
    ?(machine = Memsim.Machine.Sc) point =
  if total_inserts mod threads <> 0 then
    invalid_arg "Run.queue_params: total_inserts must divide by threads";
  { Workloads.Queue.design;
    annotation = point.annotation;
    threads;
    inserts_per_thread = total_inserts / threads;
    entry_size = 100;
    capacity_entries = max capacity_entries threads;
    seed;
    policy = Memsim.Machine.Random seed;
    machine;
    persistence = Memsim.Machine.Psync;
    barrier = Memsim.Machine.Pbarrier }

let cwl_1t ~jobs ?total_inserts ?capacity_entries f =
  match
    Parallel.Pool.map_cells_profiled ~domains:jobs
      ~label:(fun _ () -> "copy-while-locked/1T")
      (fun () -> f (queue_params ?total_inserts ?capacity_entries epoch_point))
      [ () ]
  with
  | [ r ], profile -> (r, profile)
  | _ -> assert false
