type metrics = {
  puts : int;
  gets : int;
  probes : int;
  events : int;
  persist_events : int;
  persist_ops : int;
  coalesced : int;
  critical_path : int;
  cp_per_put : float;
  cp_per_op : float;
}

let metrics_of (engine : Persistency.Engine.t) (result : Kv.result) =
  { puts = result.Kv.puts;
    gets = result.Kv.gets;
    probes = result.Kv.probes;
    events = result.Kv.events;
    persist_events = Persistency.Engine.persist_events engine;
    persist_ops = Persistency.Engine.persist_ops engine;
    coalesced = Persistency.Engine.coalesced engine;
    critical_path = Persistency.Engine.critical_path engine;
    cp_per_put = Persistency.Engine.cp_per_label engine "put";
    cp_per_op =
      (let ops = result.Kv.puts + result.Kv.gets in
       float_of_int (Persistency.Engine.critical_path engine)
       /. float_of_int (max 1 ops)) }

let run_points ?graph (params : Kv.params) points =
  Run.share ?graph ~machine:params.machine ~barrier:params.barrier
    (fun ~sites -> Kv.run ~sites params)
    (List.map (fun (d, cfg) -> (Kv.sites d, cfg)) points)

let analyze_many params points =
  let engines, result = run_points params points in
  List.map (fun e -> metrics_of e result) engines

let analyze params cfg = List.hd (analyze_many params [ (params.Kv.discipline, cfg) ])

let analyze_with_graph params cfg =
  let engines, result = run_points ~graph:true params [ (params.Kv.discipline, cfg) ] in
  let e = List.hd engines in
  (metrics_of e result, Option.get (Persistency.Engine.graph e), result.Kv.layout)

let default_total_ops = 4096

let kv_params ?(threads = 1) ?(total_ops = default_total_ops) ?(load = 0.5)
    ?(seed = 42) ?(dist = Workloads.Keygen.Uniform) mode =
  if total_ops mod threads <> 0 then
    invalid_arg "Kv_exp.kv_params: total_ops must divide by threads";
  let groups = 16 and group_size = 8 in
  let slots = groups * group_size in
  let key_space = max 1 (min slots (int_of_float (load *. float_of_int slots))) in
  { Kv.discipline = Kv.discipline_for mode;
    threads;
    ops_per_thread = total_ops / threads;
    get_every = 4;
    key_space;
    groups;
    group_size;
    seed;
    policy = Memsim.Machine.Random seed;
    dist;
    machine = Memsim.Machine.Sc;
    persistence = Memsim.Machine.Psync;
    barrier = Memsim.Machine.Pbarrier }

type cell = {
  model : string;
  threads : int;
  load : float;
  key_space : int;
  cp_per_put : float;
  cp_per_op : float;
  probes_per_op : float;
  critical_path : int;
}

type t = {
  total_ops : int;
  cells : cell list;
  profile : Parallel.Pool.profile;
}

let kv_models = [ Run.strict_point; Run.epoch_point; Run.strand_point ]

let sweep_threads = [ 1; 2; 4 ]

let run ?(jobs = 1) ?(total_ops = default_total_ops)
    ?(threads_list = sweep_threads) ?(loads = [ 0.25; 0.5 ]) ?(seed = 42)
    ?(dist = Workloads.Keygen.Uniform) () =
  let sweep =
    List.concat_map
      (fun threads -> List.map (fun load -> (threads, load)) loads)
      threads_list
  in
  (* One cell per workload setting: its one run serves every model's
     discipline. *)
  let cells, profile =
    Parallel.Pool.map_cells_profiled ~domains:jobs
      ~label:(fun _ (threads, load) ->
        Printf.sprintf "kv/%dT/%.0f%%" threads (load *. 100.))
      (fun (threads, load) ->
        let params =
          kv_params ~threads ~total_ops ~load ~seed ~dist
            Persistency.Config.Epoch
        in
        List.map2
          (fun (point : Run.model_point) m ->
            let ops = m.puts + m.gets in
            { model = point.Run.label;
              threads;
              load;
              key_space = params.Kv.key_space;
              cp_per_put = m.cp_per_put;
              cp_per_op = m.cp_per_op;
              probes_per_op = float_of_int m.probes /. float_of_int (max 1 ops);
              critical_path = m.critical_path })
          kv_models
          (analyze_many params
             (List.map
                (fun (point : Run.model_point) ->
                  ( Kv.discipline_for point.Run.mode,
                    Persistency.Config.make point.Run.mode ))
                kv_models)))
      sweep
  in
  { total_ops; cells = List.concat cells; profile }

let cell t model threads load =
  List.find_opt
    (fun c ->
      String.equal c.model model && c.threads = threads && c.load = load)
    t.cells

let loads_of t = List.sort_uniq compare (List.map (fun c -> c.load) t.cells)

let threads_of t =
  List.sort_uniq compare (List.map (fun c -> c.threads) t.cells)

let render t =
  let models = List.map (fun (p : Run.model_point) -> p.Run.label) kv_models in
  let columns =
    ("Threads", Report.Table.Right)
    :: ("Load", Report.Table.Right)
    :: ("Keys", Report.Table.Right)
    :: List.map (fun m -> (m ^ " cp/put", Report.Table.Right)) models
    @ List.map (fun m -> (m ^ " cp/op", Report.Table.Right)) models
  in
  let table = Report.Table.create ~columns in
  List.iter
    (fun threads ->
      List.iter
        (fun load ->
          let get f =
            List.map
              (fun m ->
                match cell t m threads load with
                | Some c -> Report.Table.fmt_float ~decimals:3 (f c)
                | None -> "-")
              models
          in
          let keys =
            match cell t (List.hd models) threads load with
            | Some c -> string_of_int c.key_space
            | None -> "-"
          in
          Report.Table.add_row table
            (string_of_int threads
             :: Printf.sprintf "%.0f%%" (load *. 100.)
             :: keys
             :: get (fun c -> c.cp_per_put)
            @ get (fun c -> c.cp_per_op)))
        (loads_of t))
    (threads_of t);
  Printf.sprintf
    "KV store: persist critical path per operation\n\
     (%d ops total; put = undo-logged in-place update, get = probe only)\n\n\
     %s"
    t.total_ops (Report.Table.render table)

let to_csv t =
  Report.Csv.to_string
    ~header:
      [ "model"; "threads"; "load"; "key_space"; "cp_per_put"; "cp_per_op";
        "probes_per_op"; "critical_path" ]
    (List.map
       (fun c ->
         [ c.model;
           string_of_int c.threads;
           Printf.sprintf "%.2f" c.load;
           string_of_int c.key_space;
           Printf.sprintf "%.6f" c.cp_per_put;
           Printf.sprintf "%.6f" c.cp_per_op;
           Printf.sprintf "%.6f" c.probes_per_op;
           string_of_int c.critical_path ])
       t.cells)
