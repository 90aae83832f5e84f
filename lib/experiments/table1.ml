type cell = {
  design : Workloads.Queue.design;
  model : string;
  threads : int;
  cp_per_insert : float;
  normalized : float;
  compute_bound : bool;
}

type t = {
  latency_ns : float;
  insn_ns : Workloads.Queue.design -> int -> float;
  cells : cell list;
  profile : Parallel.Pool.profile;
}

let sweep_threads = [ 1; 8 ]

let run ?(jobs = 1) ?total_inserts ?capacity_entries ?(latency_ns = 500.)
    ?(insn_ns = fun design threads -> Calibrate.default_insn_ns ~design ~threads)
    ?(threads_list = sweep_threads) () =
  let sweep =
    List.concat_map
      (fun design -> List.map (fun threads -> (design, threads)) threads_list)
      [ Workloads.Queue.Cwl; Workloads.Queue.Tlc ]
  in
  (* One cell per workload setting: its one run is analyzed under every
     model point. *)
  let cells, profile =
    Parallel.Pool.map_cells_profiled ~domains:jobs
      ~label:(fun _ (design, threads) ->
        Printf.sprintf "%s/%dT" (Workloads.Queue.design_name design) threads)
      (fun (design, threads) ->
        let params =
          Run.queue_params ~design ~threads ?total_inserts ?capacity_entries
            Run.epoch_point
        in
        List.map2
          (fun (point : Run.model_point) (m : Run.metrics) ->
            let timing =
              { Nvram.Timing.ops = m.Run.inserts;
                critical_path = m.Run.critical_path;
                insn_ns_per_op = insn_ns design threads;
                persist_latency_ns = latency_ns }
            in
            let normalized = Nvram.Timing.normalized timing in
            { design;
              model = point.Run.label;
              threads;
              cp_per_insert = m.Run.cp_per_insert;
              normalized;
              compute_bound = normalized >= 1. })
          Run.table1_models
          (Run.analyze_many params (List.map Run.paired Run.table1_models)))
      sweep
  in
  let cells = List.concat cells in
  { latency_ns; insn_ns; cells; profile }

let cell t design model threads =
  List.find_opt
    (fun c -> c.design = design && String.equal c.model model && c.threads = threads)
    t.cells

let threads_of t =
  List.sort_uniq compare (List.map (fun c -> c.threads) t.cells)

let render t =
  let models = List.map (fun (p : Run.model_point) -> p.Run.label) Run.table1_models in
  let columns =
    ("Threads", Report.Table.Right)
    :: List.concat_map
         (fun design ->
           List.map
             (fun m ->
               (Printf.sprintf "%s %s"
                  (match design with
                  | Workloads.Queue.Cwl -> "CWL"
                  | Workloads.Queue.Tlc -> "2LC"
                  | Workloads.Queue.Fang -> "Fang")
                  m,
                 Report.Table.Right))
             models)
         [ Workloads.Queue.Cwl; Workloads.Queue.Tlc ]
  in
  let table = Report.Table.create ~columns in
  List.iter
    (fun threads ->
      let row =
        string_of_int threads
        :: List.concat_map
             (fun design ->
               List.map
                 (fun model ->
                   match cell t design model threads with
                   | Some c ->
                     Report.Table.fmt_bold_if c.compute_bound
                       (Report.Table.fmt_float ~decimals:3 c.normalized)
                   | None -> "-")
                 models)
             [ Workloads.Queue.Cwl; Workloads.Queue.Tlc ]
      in
      Report.Table.add_row table row)
    (threads_of t);
  Printf.sprintf
    "Table 1: persist-bound insert rate normalized to instruction rate\n\
     (persist latency %.0f ns; *bold* = reaches instruction execution rate)\n\n\
     %s"
    t.latency_ns (Report.Table.render table)

let to_csv t =
  Report.Csv.to_string
    ~header:
      [ "design"; "model"; "threads"; "cp_per_insert"; "normalized";
        "compute_bound" ]
    (List.map
       (fun c ->
         [ Workloads.Queue.design_name c.design;
           c.model;
           string_of_int c.threads;
           Printf.sprintf "%.6f" c.cp_per_insert;
           Printf.sprintf "%.6f" c.normalized;
           string_of_bool c.compute_bound ])
       t.cells)
