type series = {
  model : string;
  cp_per_insert : float;
  break_even_ns : float;
  rates : (float * float) list;
}

type t = {
  insn_ns : float;
  latencies_ns : float list;
  series : series list;
  profile : Parallel.Pool.profile;
}

let default_latencies =
  (* Four points per decade, 10 ns .. 100 us. *)
  List.init 17 (fun i -> 10. *. (10. ** (float_of_int i /. 4.)))

let run ?(jobs = 1) ?total_inserts ?capacity_entries
    ?(insn_ns = Calibrate.default_insn_ns ~design:Workloads.Queue.Cwl ~threads:1)
    ?(latencies_ns = default_latencies) () =
  let series, profile =
    Run.cwl_1t ~jobs ?total_inserts ?capacity_entries (fun params ->
        List.map2
          (fun (point : Run.model_point) (m : Run.metrics) ->
            let rates =
              List.map
                (fun latency ->
                  let timing =
                    { Nvram.Timing.ops = m.Run.inserts;
                      critical_path = m.Run.critical_path;
                      insn_ns_per_op = insn_ns;
                      persist_latency_ns = latency }
                  in
                  (latency, Nvram.Timing.achievable_rate timing))
                latencies_ns
            in
            { model = point.Run.label;
              cp_per_insert = m.Run.cp_per_insert;
              break_even_ns =
                Nvram.Timing.break_even_latency_ns
                  ~cp_per_op:m.Run.cp_per_insert ~insn_ns_per_op:insn_ns;
              rates })
          Run.fig3_models
          (Run.analyze_many params (List.map Run.paired Run.fig3_models)))
  in
  { insn_ns; latencies_ns; series; profile }

let render t =
  let columns =
    ("Latency", Report.Table.Right)
    :: List.map (fun s -> (s.model, Report.Table.Right)) t.series
  in
  let table = Report.Table.create ~columns in
  List.iteri
    (fun i latency ->
      Report.Table.add_row table
        (Printf.sprintf "%.0f ns" latency
        :: List.map
             (fun s -> Report.Table.fmt_rate (snd (List.nth s.rates i)))
             t.series))
    t.latencies_ns;
  let break_evens =
    String.concat "; "
      (List.map
         (fun s ->
           Printf.sprintf "%s: cp/insert=%.4f, break-even at %.0f ns" s.model
             s.cp_per_insert s.break_even_ns)
         t.series)
  in
  Printf.sprintf
    "Figure 3: achievable insert rate vs persist latency (CWL, 1 thread,\n\
     instruction rate %s)\n\n%s\nBreak-even: %s\n"
    (Report.Table.fmt_rate (1e9 /. t.insn_ns))
    (Report.Table.render table) break_evens

let to_csv t =
  Report.Csv.to_string
    ~header:("latency_ns" :: List.map (fun s -> s.model) t.series)
    (List.mapi
       (fun i latency ->
         Printf.sprintf "%.2f" latency
         :: List.map
              (fun s -> Printf.sprintf "%.2f" (snd (List.nth s.rates i)))
              t.series)
       t.latencies_ns)
