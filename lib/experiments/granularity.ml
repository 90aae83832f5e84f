type which =
  | Atomic_persist
  | Tracking

type point = {
  gran : int;
  by_model : (string * float) list;
}

type t = {
  which : which;
  points : point list;
  profile : Parallel.Pool.profile;
}

let figure_name = function
  | Atomic_persist -> "Figure 4: critical path per insert vs atomic persist granularity"
  | Tracking -> "Figure 5: critical path per insert vs tracking granularity (false sharing)"

let models = [ Run.strict_point; Run.epoch_point ]

let config_for which (point : Run.model_point) gran =
  ( point.Run.annotation,
    match which with
    | Atomic_persist -> Persistency.Config.make ~persist_gran:gran point.Run.mode
    | Tracking -> Persistency.Config.make ~track_gran:gran point.Run.mode )

let run ?(jobs = 1) ?total_inserts ?capacity_entries
    ?(grans = [ 8; 16; 32; 64; 128; 256 ]) which =
  (* One cell: granularity is an engine setting, so the one run is
     analyzed under every model at every granularity. *)
  let columns, profile =
    Run.cwl_1t ~jobs ?total_inserts ?capacity_entries (fun params ->
        Run.per_point
          (fun point -> List.map (config_for which point) grans)
          models (Run.analyze_many params))
  in
  let points =
    List.mapi
      (fun i gran ->
        { gran;
          by_model =
            List.map2
              (fun (point : Run.model_point) column ->
                (point.Run.label, (List.nth column i).Run.cp_per_insert))
              models columns })
      grans
  in
  { which; points; profile }

let render t =
  let model_names = List.map (fun (p : Run.model_point) -> p.Run.label) models in
  let columns =
    ("Granularity", Report.Table.Right)
    :: List.map (fun m -> (m, Report.Table.Right)) model_names
  in
  let table = Report.Table.create ~columns in
  List.iter
    (fun p ->
      Report.Table.add_row table
        (Printf.sprintf "%d B" p.gran
        :: List.map
             (fun m ->
               Report.Table.fmt_float ~decimals:3 (List.assoc m p.by_model))
             model_names))
    t.points;
  Printf.sprintf "%s (CWL, 1 thread)\n\n%s" (figure_name t.which)
    (Report.Table.render table)

let to_csv t =
  let model_names = List.map (fun (p : Run.model_point) -> p.Run.label) models in
  Report.Csv.to_string
    ~header:("granularity_bytes" :: model_names)
    (List.map
       (fun p ->
         string_of_int p.gran
         :: List.map
              (fun m -> Printf.sprintf "%.6f" (List.assoc m p.by_model))
              model_names)
       t.points)

let value t ~gran ~model =
  match List.find_opt (fun p -> p.gran = gran) t.points with
  | None -> None
  | Some p -> List.assoc_opt model p.by_model
