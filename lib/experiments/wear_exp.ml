type row = {
  label : string;
  coalescing : Nvram.Wear.t;
  no_coalescing : Nvram.Wear.t;
}

type t = {
  rows : row list;
  profile : Parallel.Pool.profile;
}

let run ?(jobs = 1) ?(total_inserts = 2000) () =
  (* One graph-recording cell: coalescing is an engine setting and the
     models share the run, so every graph comes from its one run. *)
  let rows, profile =
    Run.cwl_1t ~jobs ~total_inserts (fun params ->
        let cfg (point : Run.model_point) coalescing =
          ( point.Run.annotation,
            Persistency.Config.make ~coalescing point.Run.mode )
        in
        List.map2
          (fun (point : Run.model_point) -> function
            | [ on; off ] ->
              { label = point.Run.label;
                coalescing = Nvram.Wear.of_graph on;
                no_coalescing = Nvram.Wear.of_graph off }
            | _ -> assert false)
          Run.table1_models
          (Run.per_point
             (fun point -> [ cfg point true; cfg point false ])
             Run.table1_models (Run.graphs params)))
  in
  { rows; profile }

let render { rows; _ } =
  let table =
    Report.Table.create
      ~columns:
        [ ("Model", Report.Table.Left);
          ("writes", Report.Table.Right);
          ("hottest block", Report.Table.Right);
          ("skew", Report.Table.Right);
          ("writes (no coalesce)", Report.Table.Right);
          ("saved by coalescing", Report.Table.Right) ]
  in
  List.iter
    (fun r ->
      let saved =
        1.
        -. (float_of_int r.coalescing.Nvram.Wear.total_writes
           /. float_of_int r.no_coalescing.Nvram.Wear.total_writes)
      in
      Report.Table.add_row table
        [ r.label;
          string_of_int r.coalescing.Nvram.Wear.total_writes;
          string_of_int r.coalescing.Nvram.Wear.max_writes;
          Printf.sprintf "%.1fx" r.coalescing.Nvram.Wear.skew;
          string_of_int r.no_coalescing.Nvram.Wear.total_writes;
          Printf.sprintf "%.0f%%" (100. *. saved) ])
    rows;
  Printf.sprintf
    "NVRAM wear by model (CWL, 1 thread; 8-byte blocks)\n\n%s"
    (Report.Table.render table)
