type row = {
  label : string;
  threads : int;
  cp_per_insert : float;
  normalized : float;
}

type point = {
  label : string;
  cfg : Persistency.Config.t;
  annotation : Workloads.Queue.annotation;
}

let points =
  [ { label = "strict/SC";
      cfg = Persistency.Config.make Persistency.Config.Strict;
      annotation = Workloads.Queue.Unannotated };
    { label = "strict/TSO";
      cfg =
        Persistency.Config.make ~consistency:Persistency.Config.Tso
          Persistency.Config.Strict;
      annotation = Workloads.Queue.Epoch };
    { label = "strict/RMO+fences";
      cfg =
        Persistency.Config.make ~consistency:Persistency.Config.Rmo
          Persistency.Config.Strict;
      annotation = Workloads.Queue.Epoch };
    { label = "epoch/SC";
      cfg = Persistency.Config.make Persistency.Config.Epoch;
      annotation = Workloads.Queue.Epoch };
    { label = "strand/SC";
      cfg = Persistency.Config.make Persistency.Config.Strand;
      annotation = Workloads.Queue.Strand } ]

type t = {
  rows : row list;
  profile : Parallel.Pool.profile;
}

let sweep_threads = [ 1; 8 ]

let run ?(jobs = 1) ?total_inserts ?capacity_entries ?(latency_ns = 500.) () =
  let sweep =
    List.concat_map
      (fun threads -> List.map (fun point -> (threads, point)) points)
      sweep_threads
  in
  let rows, profile =
    Parallel.Pool.map_cells_profiled ~domains:jobs
      ~label:(fun _ (threads, point) ->
        Printf.sprintf "%s/%dT" point.label threads)
      (fun (threads, point) ->
        let params =
          Run.queue_params ~threads ?total_inserts ?capacity_entries
            { Run.label = point.label;
              mode = point.cfg.Persistency.Config.mode;
              annotation = point.annotation }
        in
        let m = Run.analyze params point.cfg in
        let timing =
          { Nvram.Timing.ops = m.Run.inserts;
            critical_path = m.Run.critical_path;
            insn_ns_per_op =
              Calibrate.default_insn_ns ~design:Workloads.Queue.Cwl ~threads;
            persist_latency_ns = latency_ns }
        in
        { label = point.label;
          threads;
          cp_per_insert = m.Run.cp_per_insert;
          normalized = Nvram.Timing.normalized timing })
      sweep
  in
  { rows; profile }

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
