(* The lock-free CAS-set sweep: persist critical path per insert for
   the flush-everything baseline vs the NVTraverse-style destination
   discipline, across thread counts, under epoch persistency.  The
   walk-time flushes are what the baseline pays: every walked link's
   publisher joins the CAS's dependence frontier, so its critical path
   grows with traversal length while NVTraverse's stays at the
   destination window. *)

module C = Lockfree.Cas_set
module M = Memsim.Machine

(* The machine matrix the sweep runs under: the NVTraverse win is a
   statement about persist dependence chains, so it must hold whether
   persists commit synchronously at the fence (sc, tso-sync) or drain
   asynchronously from the persistence buffer (tso-buffered). *)
type mconfig = M.mconfig = {
  mlabel : string;
  model : M.model;
  persistence : M.persistence;
}

let all_mconfigs = M.all_configs

type metrics = {
  inserts : int;
  events : int;
  persist_events : int;
  persist_ops : int;
  coalesced : int;
  critical_path : int;
  cp_per_insert : float;
}

let metrics_of (engine : Persistency.Engine.t) (result : C.result) =
  { inserts = result.C.inserts;
    events = result.C.events;
    persist_events = Persistency.Engine.persist_events engine;
    persist_ops = Persistency.Engine.persist_ops engine;
    coalesced = Persistency.Engine.coalesced engine;
    critical_path = Persistency.Engine.critical_path engine;
    cp_per_insert = Persistency.Engine.cp_per_label engine "insert" }

let analyze params cfg =
  let engine, result = Persistency.Engine.run cfg (C.run params) in
  metrics_of engine result

let analyze_with_graph params cfg =
  let engine, result =
    Persistency.Engine.run
      { cfg with Persistency.Config.record_graph = true }
      (C.run params)
  in
  (metrics_of engine result, Option.get (Persistency.Engine.graph engine),
   result.C.layout)

let set_params ?(threads = 2) ?(inserts = 256) ?(seed = 42)
    ?(mconfig = M.sc_config) discipline =
  { C.discipline;
    threads;
    inserts_per_thread = inserts;
    key_space = 2 * threads * inserts;
    seed;
    policy = Memsim.Machine.Random seed;
    machine = mconfig.model;
    persistence = mconfig.persistence }

type cell = {
  machine : string;  (** mconfig label: sc, tso-sync or tso-buffered *)
  threads : int;
  cp_flush_all : float;
  cp_nvtraverse : float;
  saving : float;  (** 1 - nvtraverse/flush-all, as a fraction *)
  persists_flush_all : int;
  persists_nvtraverse : int;
}

type t = {
  inserts : int;  (** per thread *)
  cells : cell list;
  profile : Parallel.Pool.profile;
}

let run ?(jobs = 1) ?(threads_list = [ 1; 2; 4 ]) ?(inserts = 256)
    ?(seed = 42) ?(mconfigs = all_mconfigs) () =
  let disciplines = [ C.Flush_all; C.Nvtraverse ] in
  let sweep =
    List.concat_map
      (fun mc ->
        List.concat_map
          (fun threads -> List.map (fun d -> (mc, threads, d)) disciplines)
          threads_list)
      mconfigs
  in
  let points, profile =
    Parallel.Pool.map_cells_profiled ~domains:jobs
      ~label:(fun _ (mc, threads, d) ->
        Printf.sprintf "lockfree/%s/%s/%dT" mc.mlabel (C.discipline_name d)
          threads)
      (fun (mc, threads, d) ->
        let params = set_params ~threads ~inserts ~seed ~mconfig:mc d in
        let cfg = Persistency.Config.make Persistency.Config.Epoch in
        (mc, threads, d, analyze params cfg))
      sweep
  in
  let find mc threads d =
    let _, _, _, m =
      List.find
        (fun (mc', t, d', _) -> mc'.mlabel = mc.mlabel && t = threads && d' = d)
        points
    in
    m
  in
  let cells =
    List.concat_map
      (fun mc ->
        List.map
          (fun threads ->
            let base = find mc threads C.Flush_all in
            let opt = find mc threads C.Nvtraverse in
            { machine = mc.mlabel;
              threads;
              cp_flush_all = base.cp_per_insert;
              cp_nvtraverse = opt.cp_per_insert;
              saving = 1. -. (opt.cp_per_insert /. base.cp_per_insert);
              persists_flush_all = base.persist_ops;
              persists_nvtraverse = opt.persist_ops })
          threads_list)
      mconfigs
  in
  { inserts; cells; profile }

let cells t = t.cells

let render t =
  let columns =
    [ ("Machine", Report.Table.Left);
      ("Threads", Report.Table.Right);
      ("flush-all cp/insert", Report.Table.Right);
      ("nvtraverse cp/insert", Report.Table.Right);
      ("saving", Report.Table.Right);
      ("flush-all persists", Report.Table.Right);
      ("nvtraverse persists", Report.Table.Right) ]
  in
  let table = Report.Table.create ~columns in
  List.iter
    (fun c ->
      Report.Table.add_row table
        [ c.machine;
          string_of_int c.threads;
          Report.Table.fmt_float ~decimals:3 c.cp_flush_all;
          Report.Table.fmt_float ~decimals:3 c.cp_nvtraverse;
          Printf.sprintf "%.1f%%" (c.saving *. 100.);
          string_of_int c.persists_flush_all;
          string_of_int c.persists_nvtraverse ])
    t.cells;
  Printf.sprintf
    "Lock-free CAS set: persist critical path per insert, epoch model\n\
     (%d inserts per thread; flush-all persists the whole traversal, \
     nvtraverse only the destination window; tso-buffered drains persists \
     asynchronously)\n\n\
     %s"
    t.inserts (Report.Table.render table)

let to_csv t =
  Report.Csv.to_string
    ~header:
      [ "machine"; "threads"; "cp_flush_all"; "cp_nvtraverse"; "saving";
        "persists_flush_all"; "persists_nvtraverse" ]
    (List.map
       (fun c ->
         [ c.machine;
           string_of_int c.threads;
           Printf.sprintf "%.6f" c.cp_flush_all;
           Printf.sprintf "%.6f" c.cp_nvtraverse;
           Printf.sprintf "%.6f" c.saving;
           string_of_int c.persists_flush_all;
           string_of_int c.persists_nvtraverse ])
       t.cells)
