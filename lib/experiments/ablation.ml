type comparison = {
  label : string;
  baseline : float;
  variant : float;
}

let epoch_points = [ Run.epoch_point; Run.racing_point ]

let cp params cfg = (Run.analyze params cfg).Run.cp_per_insert

(* Each ablation enumerates its sweep as a cell list and maps it
   through the domain pool; [on_profile] receives the sweep timing
   (the CLI prints it as the sweep-profile footer). *)
let pool_map ?(jobs = 1) ?(on_profile = fun _ -> ()) ~label f cells =
  let results, profile =
    Parallel.Pool.map_cells_profiled ~domains:jobs ~label f cells
  in
  on_profile profile;
  results

let comparison_threads = 4

(* Baseline and variants are engine settings, so they read one run. *)
let comparison label (baseline : Run.metrics) (variant : Run.metrics) =
  { label;
    baseline = baseline.Run.cp_per_insert;
    variant = variant.Run.cp_per_insert }

type conflicts = {
  tso : comparison list;
  spaces : comparison list;
}

let conflicts ?jobs ?on_profile ?(threads = comparison_threads)
    ?total_inserts () =
  let cells =
    pool_map ?jobs ?on_profile
      ~label:(fun _ design ->
        Printf.sprintf "%s/%dT" (Workloads.Queue.design_name design) threads)
      (fun design ->
        let params =
          Run.queue_params ~design ~threads ?total_inserts Run.epoch_point
        in
        let cfgs (point : Run.model_point) =
          List.map
            (fun cfg -> (point.Run.annotation, cfg point.Run.mode))
            [ Persistency.Config.make;
              Persistency.Config.make ~tso_conflicts:true;
              Persistency.Config.make ~persistent_only_conflicts:true ]
        in
        List.map2
          (fun (point : Run.model_point) -> function
            | [ base; tso; spaces ] ->
              let versus =
                comparison
                  (Printf.sprintf "%s/%s/%dT"
                     (Workloads.Queue.design_name design)
                     point.Run.label threads)
                  base
              in
              (versus tso, versus spaces)
            | _ -> assert false)
          epoch_points
          (Run.per_point cfgs epoch_points (Run.analyze_many params)))
      [ Workloads.Queue.Cwl; Workloads.Queue.Tlc ]
  in
  let cells = List.concat cells in
  { tso = List.map fst cells; spaces = List.map snd cells }

(* A one-cell sweep, its profile reported like every other section's. *)
let cwl_1t ?(jobs = 1) ?(on_profile = fun _ -> ()) ?total_inserts f =
  let r, profile = Run.cwl_1t ~jobs ?total_inserts f in
  on_profile profile;
  r

let coalescing ?jobs ?on_profile ?total_inserts () =
  let cfgs (point : Run.model_point) =
    List.map
      (fun coalescing ->
        (point.Run.annotation, Persistency.Config.make ~coalescing point.Run.mode))
      [ true; false ]
  in
  cwl_1t ?jobs ?on_profile ?total_inserts (fun params ->
      List.map2
        (fun (point : Run.model_point) -> function
          | [ on; off ] -> comparison point.Run.label on off
          | _ -> assert false)
        Run.table1_models
        (Run.per_point cfgs Run.table1_models (Run.analyze_many params)))

type graphs = {
  total_inserts : int;
  by_model : (string * Persistency.Persist_graph.t) list;
}

let model_graphs ?jobs ?on_profile ?(total_inserts = 2000) () =
  { total_inserts;
    by_model =
      cwl_1t ?jobs ?on_profile ~total_inserts (fun params ->
          List.map2
            (fun (p : Run.model_point) g -> (p.Run.label, g))
            Run.fig3_models
            (Run.graphs params (List.map Run.paired Run.fig3_models))) }

(* Drain-simulated inserts/s of each model's graph. *)
let rates ?sync_every ~latency_ns ~depth (g : graphs) =
  let insn_ns_per_op =
    Calibrate.default_insn_ns ~design:Workloads.Queue.Cwl ~threads:1
  in
  List.map
    (fun (label, graph) ->
      ( label,
        (Nvram.Drain.simulate ?sync_every graph ~ops:g.total_inserts
           ~insn_ns_per_op ~latency_ns ~depth)
          .Nvram.Drain.ops_per_sec ))
    g.by_model

type buffer_point = {
  depth : int;
  by_model : (string * float) list;
}

let buffer_depth ?(depths = [ 1; 2; 4; 8; 16; 64; 256 ]) ?(latency_ns = 500.) g
    =
  List.map
    (fun depth -> { depth; by_model = rates ~latency_ns ~depth g })
    depths

type sync_point = {
  sync_every : int option;
  by_model : (string * float) list;
}

let persist_sync ?(intervals = [ Some 1; Some 4; Some 16; Some 64; None ])
    ?(latency_ns = 500.) g =
  List.map
    (fun sync_every ->
      { sync_every; by_model = rates ?sync_every ~latency_ns ~depth:max_int g })
    intervals

let render_sync (points : sync_point list) =
  match points with
  | [] -> "no sync points\n"
  | first :: _ ->
    let models = List.map fst first.by_model in
    let table =
      Report.Table.create
        ~columns:
          (("Sync every", Report.Table.Right)
          :: List.map (fun m -> (m, Report.Table.Right)) models)
    in
    List.iter
      (fun p ->
        Report.Table.add_row table
          ((match p.sync_every with
           | Some k -> Printf.sprintf "%d inserts" k
           | None -> "never")
          :: List.map
               (fun m -> Report.Table.fmt_rate (List.assoc m p.by_model))
               models))
      points;
    Printf.sprintf
      "Persist sync (paper 4.1): throughput vs sync frequency (CWL, 1 thread, 500 ns)\n\n%s"
      (Report.Table.render table)

let capacity ?jobs ?on_profile ?(capacities = [ 8; 16; 24; 32; 48; 64; 128 ])
    ?total_inserts () =
  pool_map ?jobs ?on_profile
    ~label:(fun _ cap -> Printf.sprintf "capacity %d" cap)
    (fun capacity_entries ->
      let params =
        Run.queue_params ~capacity_entries ?total_inserts Run.strand_point
      in
      ( capacity_entries,
        cp params (Persistency.Config.make Persistency.Config.Strand) ))
    capacities

let render_comparisons ~title comparisons =
  let table =
    Report.Table.create
      ~columns:
        [ ("Configuration", Report.Table.Left);
          ("baseline", Report.Table.Right);
          ("variant", Report.Table.Right);
          ("ratio", Report.Table.Right) ]
  in
  List.iter
    (fun c ->
      Report.Table.add_row table
        [ c.label;
          Report.Table.fmt_float c.baseline;
          Report.Table.fmt_float c.variant;
          Report.Table.fmt_float ~decimals:2 (c.variant /. c.baseline) ])
    comparisons;
  Printf.sprintf "%s\n\n%s" title (Report.Table.render table)

let render_buffer (points : buffer_point list) =
  match points with
  | [] -> "no buffer points\n"
  | first :: _ ->
    let models = List.map fst first.by_model in
    let table =
      Report.Table.create
        ~columns:
          (("Depth", Report.Table.Right)
          :: List.map (fun m -> (m, Report.Table.Right)) models)
    in
    List.iter
      (fun p ->
        Report.Table.add_row table
          (string_of_int p.depth
          :: List.map
               (fun m -> Report.Table.fmt_rate (List.assoc m p.by_model))
               models))
      points;
    Printf.sprintf
      "Ablation A3: finite persist-buffer throughput (CWL, 1 thread, 500 ns)\n\n%s"
      (Report.Table.render table)

let render_capacity points =
  let table =
    Report.Table.create
      ~columns:
        [ ("Capacity (entries)", Report.Table.Right);
          ("strand cp/insert", Report.Table.Right) ]
  in
  List.iter
    (fun (cap, v) ->
      Report.Table.add_row table
        [ string_of_int cap; Report.Table.fmt_float v ])
    points;
  Printf.sprintf
    "Ablation A5: data-segment capacity bounds strand coalescing (CWL, 1 thread)\n\n%s"
    (Report.Table.render table)
