type row = {
  label : string;
  threads : int;
  cp_per_insert : float;
  normalized : float;
}

(* Labelled points: the model point fixes the queue annotation, the
   only part the machine sees, so strict/TSO and strict/RMO read the
   epoch annotation's barriers as fences. *)
let points =
  let open Persistency.Config in
  [ ("strict/SC", Run.strict_point, make Strict);
    ("strict/TSO", Run.epoch_point, make ~consistency:Tso Strict);
    ("strict/RMO+fences", Run.epoch_point, make ~consistency:Rmo Strict);
    ("epoch/SC", Run.epoch_point, make Epoch);
    ("strand/SC", Run.strand_point, make Strand) ]

type t = {
  rows : row list;
  profile : Parallel.Pool.profile;
}

let sweep_threads = [ 1; 8 ]

let run ?(jobs = 1) ?total_inserts ?capacity_entries ?(latency_ns = 500.) () =
  let rows, profile =
    Parallel.Pool.map_cells_profiled ~domains:jobs
      ~label:(fun _ threads -> Printf.sprintf "copy-while-locked/%dT" threads)
      (fun threads ->
        let params =
          Run.queue_params ~threads ?total_inserts ?capacity_entries
            Run.epoch_point
        in
        List.map2
          (fun (label, _, _) (m : Run.metrics) ->
            let timing =
              { Nvram.Timing.ops = m.Run.inserts;
                critical_path = m.Run.critical_path;
                insn_ns_per_op =
                  Calibrate.default_insn_ns ~design:Workloads.Queue.Cwl
                    ~threads;
                persist_latency_ns = latency_ns }
            in
            { label;
              threads;
              cp_per_insert = m.Run.cp_per_insert;
              normalized = Nvram.Timing.normalized timing })
          points
          (Run.analyze_many params
             (List.map
                (fun (_, (point : Run.model_point), cfg) ->
                  (point.Run.annotation, cfg))
                points)))
      sweep_threads
  in
  { rows = List.concat rows; profile }

let render { rows; _ } =
  let table =
    Report.Table.create
      ~columns:
        [ ("Model / consistency", Report.Table.Left);
          ("threads", Report.Table.Right);
          ("cp/insert", Report.Table.Right);
          ("normalized", Report.Table.Right) ]
  in
  List.iter
    (fun (r : row) ->
      Report.Table.add_row table
        [ r.label;
          string_of_int r.threads;
          Report.Table.fmt_float r.cp_per_insert;
          Report.Table.fmt_bold_if (r.normalized >= 1.)
            (Report.Table.fmt_float r.normalized) ])
    rows;
  Printf.sprintf
    "Relaxing consistency vs relaxing persistency (CWL, 500 ns persists)\n\
     strict/RMO uses the epoch annotation's barrier points as memory fences\n\n\
     %s"
    (Report.Table.render table)
