(* Queue throughput under the two machine consistency models.

   The paper defines its relaxed persistency models over an SC machine;
   Px86 hardware gives TSO.  This sweep runs the same CWL queue on both
   machines ({!Memsim.Machine.model}) under epoch persistency: the
   store buffers delay persists to drain time but keep each thread's
   stores FIFO, so the epoch annotation's ordering still holds and the
   persist critical path stays in the same regime — the observable
   difference is in event order, not recovery safety (the litmus suite
   and the exploration tests check the ordering claims exhaustively on
   small programs). *)

type row = {
  machine : Memsim.Machine.model;
  threads : int;
  inserts : int;
  persist_events : int;
  persist_ops : int;
  cp_per_insert : float;
}

type t = {
  rows : row list;
  profile : Parallel.Pool.profile;
}

let machine_label = function
  | Memsim.Machine.Sc -> "sc"
  | Memsim.Machine.Tso -> "tso"

let sweep_threads = [ 1; 2; 8 ]

let run ?(jobs = 1) ?total_inserts ?capacity_entries () =
  let sweep =
    List.concat_map
      (fun threads ->
        List.map
          (fun machine -> (threads, machine))
          [ Memsim.Machine.Sc; Memsim.Machine.Tso ])
      sweep_threads
  in
  let rows, profile =
    Parallel.Pool.map_cells_profiled ~domains:jobs
      ~label:(fun _ (threads, machine) ->
        Printf.sprintf "%s/%dT" (machine_label machine) threads)
      (fun (threads, machine) ->
        let params =
          Run.queue_params ~threads ?total_inserts ?capacity_entries ~machine
            Run.epoch_point
        in
        let m =
          Run.analyze params
            (Persistency.Config.make Persistency.Config.Epoch)
        in
        { machine;
          threads;
          inserts = m.Run.inserts;
          persist_events = m.Run.persist_events;
          persist_ops = m.Run.persist_ops;
          cp_per_insert = m.Run.cp_per_insert })
      sweep
  in
  { rows; profile }

let render { rows; _ } =
  let table =
    Report.Table.create
      ~columns:
        [ ("machine", Report.Table.Left);
          ("threads", Report.Table.Right);
          ("inserts", Report.Table.Right);
          ("persists", Report.Table.Right);
          ("persist ops", Report.Table.Right);
          ("cp/insert", Report.Table.Right) ]
  in
  List.iter
    (fun r ->
      Report.Table.add_row table
        [ machine_label r.machine;
          string_of_int r.threads;
          string_of_int r.inserts;
          string_of_int r.persist_events;
          string_of_int r.persist_ops;
          Report.Table.fmt_float r.cp_per_insert ])
    rows;
  Printf.sprintf
    "Epoch-persistency CWL queue on an SC vs an x86-TSO machine\n\
     (TSO: per-thread store buffers, persists land at drain time)\n\n\
     %s"
    (Report.Table.render table)
