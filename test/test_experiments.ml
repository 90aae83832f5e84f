(* End-to-end tests of the experiment drivers: the reproduced tables
   and figures must exhibit the paper's qualitative structure even at
   reduced scale. *)

module R = Experiments.Run
module Q = Workloads.Queue

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* small but representative scale, so the suite stays fast *)
let inserts = 2400
let capacity = 24

let cell t design model threads =
  match Experiments.Table1.cell t design model threads with
  | Some c -> c
  | None -> Alcotest.failf "missing Table 1 cell %s/%d" model threads

let table1 =
  lazy
    (Experiments.Table1.run ~total_inserts:inserts ~capacity_entries:capacity
       ())

let test_table1_structure () =
  let t = Lazy.force table1 in
  checki "16 cells" 16 (List.length t.Experiments.Table1.cells);
  (* strict is the most constrained model everywhere *)
  List.iter
    (fun design ->
      List.iter
        (fun threads ->
          let strict = cell t design "strict" threads in
          List.iter
            (fun model ->
              let c = cell t design model threads in
              checkb
                (Printf.sprintf "%s beats strict (%s, %dT)" model
                   (Q.design_name design) threads)
                true
                (c.Experiments.Table1.normalized
                >= strict.Experiments.Table1.normalized))
            [ "epoch"; "racing-epochs"; "strand" ])
        [ 1; 8 ])
    [ Q.Cwl; Q.Tlc ]

let test_table1_headline_numbers () =
  let t = Lazy.force table1 in
  (* the paper's headline: strict persistency costs CWL ~30x at 500ns *)
  let strict1 = cell t Q.Cwl "strict" 1 in
  checkb "cwl strict 1T ~ 1/30" true
    (strict1.Experiments.Table1.normalized > 0.02
    && strict1.Experiments.Table1.normalized < 0.06);
  checkb "strict persist-bound" false strict1.Experiments.Table1.compute_bound;
  (* strand reaches instruction rate even single-threaded *)
  List.iter
    (fun design ->
      let c = cell t design "strand" 1 in
      checkb "strand compute-bound at 1T" true
        c.Experiments.Table1.compute_bound)
    [ Q.Cwl; Q.Tlc ];
  (* racing epochs reach instruction rate with 8 threads *)
  checkb "racing 8T compute-bound" true
    (cell t Q.Cwl "racing-epochs" 8).Experiments.Table1.compute_bound;
  (* epoch (non-racing) CWL stays persist-bound even with 8 threads *)
  checkb "epoch CWL 8T persist-bound" false
    (cell t Q.Cwl "epoch" 8).Experiments.Table1.compute_bound;
  (* 2LC epoch approaches instruction rate at 8 threads (paper:
     "achieving instruction execution rate"); exactly 1.0 is scale- and
     schedule-sensitive, so accept the neighborhood *)
  checkb "2LC epoch 8T near instruction rate" true
    ((cell t Q.Tlc "epoch" 8).Experiments.Table1.normalized >= 0.9)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let test_table1_render_and_csv () =
  let t = Lazy.force table1 in
  let rendered = Experiments.Table1.render t in
  checkb "mentions latency" true (contains rendered "500 ns");
  checkb "has all models" true
    (List.for_all (fun m -> contains rendered m)
       [ "strict"; "epoch"; "racing-epochs"; "strand" ]);
  let csv = Experiments.Table1.to_csv t in
  checki "17 csv lines" 17
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)))

let test_fig3_breakevens () =
  let f = Experiments.Fig3.run ~total_inserts:inserts ~capacity_entries:capacity () in
  let be model =
    (List.find (fun s -> s.Experiments.Fig3.model = model) f.Experiments.Fig3.series)
      .Experiments.Fig3.break_even_ns
  in
  (* paper: ~17ns, ~119ns, ~6us *)
  checkb "strict knee ~17ns" true (be "strict" > 10. && be "strict" < 30.);
  checkb "epoch knee ~125ns" true (be "epoch" > 80. && be "epoch" < 200.);
  checkb "strand knee ~6us" true (be "strand" > 3000. && be "strand" < 12000.);
  (* rates never exceed the instruction rate and decay with latency *)
  List.iter
    (fun s ->
      let rates = List.map snd s.Experiments.Fig3.rates in
      List.iter
        (fun r -> checkb "capped at insn rate" true (r <= 1e9 /. f.Experiments.Fig3.insn_ns +. 1.))
        rates;
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a +. 1e-6 >= b && non_increasing rest
        | [ _ ] | [] -> true
      in
      checkb "monotone decay" true (non_increasing rates))
    f.Experiments.Fig3.series

(* The smallest x at which a curve sampled at ascending positive x
   reaches [level], interpolated linearly in log x between the two
   samples that bracket it. *)
let crossing_log pts ~level =
  let rec go = function
    | (x0, y0) :: ((x1, y1) :: _ as rest) ->
      if (y0 -. level) *. (y1 -. level) <= 0. && y0 <> y1 then
        let l0 = log x0 and l1 = log x1 in
        Some (exp (l0 +. ((l1 -. l0) *. (level -. y0) /. (y1 -. y0))))
      else if y0 = level then Some x0
      else go rest
    | [ _ ] | [] -> None
  in
  go pts

let test_fig3_empirical_knees () =
  (* cross-check the analytic break-even against the sampled curve: the
     smallest latency where achievable rate drops below the instruction
     rate, located by log-x interpolation over the Figure 3 series *)
  let f =
    Experiments.Fig3.run ~total_inserts:inserts ~capacity_entries:capacity ()
  in
  let insn_rate = 1e9 /. f.Experiments.Fig3.insn_ns in
  List.iter
    (fun s ->
      let level = 0.99 *. insn_rate in
      match crossing_log s.Experiments.Fig3.rates ~level with
      | None ->
        (* the sweep never leaves the compute-bound plateau: the knee
           must lie beyond the last sampled latency *)
        checkb "knee beyond sweep" true
          (s.Experiments.Fig3.break_even_ns >= 100_000.)
      | Some knee ->
        let analytic = s.Experiments.Fig3.break_even_ns in
        checkb
          (Printf.sprintf "%s empirical knee %.0f ~ analytic %.0f"
             s.Experiments.Fig3.model knee analytic)
          true
          (knee > analytic /. 2.5 && knee < analytic *. 2.5))
    f.Experiments.Fig3.series

let test_fig4_shape () =
  let f =
    Experiments.Granularity.run ~total_inserts:inserts
      ~capacity_entries:capacity Experiments.Granularity.Atomic_persist
  in
  let v gran model =
    Option.get (Experiments.Granularity.value f ~gran ~model)
  in
  (* strict improves with atomic persist size; epoch is insensitive *)
  checkb "strict 8B worst" true (v 8 "strict" > v 64 "strict");
  checkb "strict keeps improving" true (v 64 "strict" > v 256 "strict");
  checkb "epoch flat-ish" true (v 8 "epoch" -. v 256 "epoch" < 0.5);
  (* they converge at 256B (paper: strict matches epoch) *)
  checkb "converge at 256B" true
    (Float.abs (v 256 "strict" -. v 256 "epoch") < 1.0);
  (* strict at 8B is the paper's ~15 persists per insert *)
  checkb "strict 8B ~15" true (v 8 "strict" > 14. && v 8 "strict" < 16.)

let test_fig5_shape () =
  let f =
    Experiments.Granularity.run ~total_inserts:inserts
      ~capacity_entries:capacity Experiments.Granularity.Tracking
  in
  let v gran model =
    Option.get (Experiments.Granularity.value f ~gran ~model)
  in
  (* false sharing leaves strict unchanged and degrades epoch *)
  checkb "strict flat" true (Float.abs (v 8 "strict" -. v 256 "strict") < 0.5);
  checkb "epoch degrades" true (v 256 "epoch" > 3. *. v 8 "epoch");
  checkb "epoch approaches strict" true
    (v 256 "epoch" > 0.6 *. v 256 "strict")

let test_validation_stable () =
  let v = Experiments.Validation.run ~threads:4 ~total_inserts:2000 () in
  checkb "schedules agree" true (v.Experiments.Validation.max_tvd < 0.05);
  checki "six samples" 6 (List.length v.Experiments.Validation.samples)

let test_validation_distances () =
  (* a strictly rotating commit order has all distances = threads-1 *)
  let order = [ 0; 1; 2; 0; 1; 2; 0; 1; 2 ] in
  let d = Experiments.Validation.insert_distances order in
  checki "six gaps" 6 (List.length d);
  checkb "all distance 2" true (List.for_all (fun (_, x) -> x = 2) d)

let test_ablation_conflict_spaces () =
  (* persistent-only conflict tracking erases the lock-word ordering
     that the conservative epoch placement relies on: CWL/epoch gets
     MORE concurrency (a smaller critical path), i.e. BPFS-style
     tracking silently weakens the ordering the annotation implied *)
  let rows =
    (Experiments.Ablation.conflicts ~total_inserts:1200 ()).Experiments.Ablation.spaces
  in
  let cwl_epoch =
    List.find
      (fun (c : Experiments.Ablation.comparison) ->
        c.label = "copy-while-locked/epoch/4T")
      rows
  in
  checkb "persistent-only drops constraints" true
    (cwl_epoch.Experiments.Ablation.variant
    < cwl_epoch.Experiments.Ablation.baseline)

let test_ablation_coalescing () =
  let rows = Experiments.Ablation.coalescing ~total_inserts:1200 () in
  let strand =
    List.find
      (fun (c : Experiments.Ablation.comparison) -> c.label = "strand")
      rows
  in
  checkb "coalescing is what makes strand fast" true
    (strand.Experiments.Ablation.variant
    > 5. *. strand.Experiments.Ablation.baseline)

let test_ablation_capacity_law () =
  (* strand cp/insert ~ 1/capacity *)
  let rows = Experiments.Ablation.capacity ~capacities:[ 16; 64 ] ~total_inserts:1600 () in
  let v cap = List.assoc cap rows in
  let ratio = v 16 /. v 64 in
  checkb "4x capacity ~ 1/4 critical path" true (ratio > 3. && ratio < 5.)

let test_fang_similar_throughput () =
  (* paper Section 6: Fang's queue "achieves similar persist throughput
     under our models" to Copy While Locked *)
  List.iter
    (fun (point : R.model_point) ->
      let cp design =
        let params =
          R.queue_params ~design ~total_inserts:2000 ~capacity_entries:24
            point
        in
        (R.analyze params (Persistency.Config.make point.mode))
          .R.cp_per_insert
      in
      let cwl = cp Q.Cwl and fang = cp Q.Fang in
      checkb
        (Printf.sprintf "fang ~ cwl under %s (%.3f vs %.3f)" point.label fang
           cwl)
        true
        (fang < 1.6 *. cwl +. 0.3 && cwl < 1.6 *. fang +. 0.3))
    [ R.strict_point; R.epoch_point; R.strand_point ]

let test_fang_recovers_prefix () =
  let params =
    { (R.queue_params ~design:Q.Fang ~threads:2 ~total_inserts:16
         ~capacity_entries:16 R.epoch_point)
      with Workloads.Queue.policy = Memsim.Machine.Random 9 }
  in
  let cfg = Persistency.Config.make Persistency.Config.Epoch in
  let m, graph, layout = R.analyze_with_graph params cfg in
  checki "all inserts ran" 16 m.R.inserts;
  let capacity =
    layout.Workloads.Queue.data_addr + layout.Workloads.Queue.data_bytes
  in
  match
    Recovery.check ~graph ~capacity
      ~strategy:(Recovery.Sampled { samples = 300; seed = 9 })
      (Workloads.Queue_recovery.check ~params ~layout)
  with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Recovery.render_failure f)

let test_cache_impl () =
  let rows = Experiments.Cache_impl.run ~total_inserts:800 ~threads:2 () in
  checki "two designs x two geometries" 4 (List.length rows);
  List.iter
    (fun (r : Experiments.Cache_impl.row) ->
      checkb "persists counted" true (r.persists > 0);
      checkb "model counted" true
        (r.model_atomic > 0 && r.model_atomic <= r.persists);
      checkb "writebacks happen" true (r.writebacks > 0);
      (* 64-byte lines absorb the word persists of each entry *)
      checkb "cache coalescing beats per-word writes" true
        (r.writebacks < r.persists);
      checkb "write amplification sane" true
        (r.write_amp > 0.5 && r.write_amp < 8.))
    rows;
  checkb "renders" true
    (String.length (Experiments.Cache_impl.render rows) > 0)

let test_wear_exp () =
  let t = Experiments.Wear_exp.run ~total_inserts:800 () in
  let rows = t.Experiments.Wear_exp.rows in
  checki "four models" 4 (List.length rows);
  let strand =
    List.find (fun (r : Experiments.Wear_exp.row) -> r.label = "strand") rows
  in
  (* coalescing is what saves strand's writes (paper Section 3) *)
  checkb "strand writes reduced" true
    (strand.coalescing.Nvram.Wear.total_writes * 2
    < strand.no_coalescing.Nvram.Wear.total_writes);
  let strict =
    List.find (fun (r : Experiments.Wear_exp.row) -> r.label = "strict") rows
  in
  checkb "strict writes everything" true
    (strict.coalescing.Nvram.Wear.total_writes
    = strict.no_coalescing.Nvram.Wear.total_writes);
  checkb "renders" true (String.length (Experiments.Wear_exp.render t) > 0)

(* One run analyzed under several points equals one run per point, for
   every kind of setting the sweeps share a run across: annotation,
   granularity, coalescing, conflict tracking and consistency.  The
   unshared path is the reference. *)
let test_shared_analysis () =
  let module C = Persistency.Config in
  let params = R.queue_params ~threads:2 ~total_inserts:400 R.epoch_point in
  let points =
    [ (Q.Unannotated, C.make ~persist_gran:64 C.Strict);
      (Q.Epoch, C.make ~track_gran:64 C.Epoch);
      (Q.Racing, C.make ~coalescing:false C.Epoch);
      (Q.Strand, C.make C.Strand);
      (Q.Buggy_epoch, C.make ~tso_conflicts:true C.Epoch);
      (Q.Epoch, C.make ~persistent_only_conflicts:true C.Epoch);
      (Q.Epoch, C.make ~consistency:C.Tso C.Strict);
      (Q.Epoch, C.make ~consistency:C.Rmo C.Strict) ]
  in
  let solo (annotation, _) = { params with Q.annotation } in
  checkb "metrics" true
    (R.analyze_many params points
    = List.map (fun ((_, cfg) as p) -> R.analyze (solo p) cfg) points);
  let fp = Persistency.Graph_export.fingerprint in
  Alcotest.(check (list string))
    "graphs"
    (List.map
       (fun ((_, cfg) as p) ->
         let _, g, _ = R.analyze_with_graph (solo p) cfg in
         fp g)
       points)
    (List.map fp (R.graphs params points))

let test_queue_params_validation () =
  Alcotest.match_raises "indivisible inserts"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore (R.queue_params ~threads:7 ~total_inserts:100 R.epoch_point))

let () =
  Alcotest.run "experiments"
    [ ( "table1",
        [ Alcotest.test_case "structure" `Slow test_table1_structure;
          Alcotest.test_case "headline numbers" `Slow
            test_table1_headline_numbers;
          Alcotest.test_case "render" `Slow test_table1_render_and_csv ] );
      ( "fig3",
        [ Alcotest.test_case "break-evens" `Slow test_fig3_breakevens;
          Alcotest.test_case "empirical knees" `Slow
            test_fig3_empirical_knees ] );
      ( "fig4", [ Alcotest.test_case "shape" `Slow test_fig4_shape ] );
      ( "fig5", [ Alcotest.test_case "shape" `Slow test_fig5_shape ] );
      ( "validation",
        [ Alcotest.test_case "stable across schedules" `Slow
            test_validation_stable;
          Alcotest.test_case "distances" `Quick test_validation_distances ] );
      ( "ablation",
        [ Alcotest.test_case "conflict spaces" `Slow
            test_ablation_conflict_spaces;
          Alcotest.test_case "coalescing" `Slow test_ablation_coalescing;
          Alcotest.test_case "capacity law" `Slow test_ablation_capacity_law ] );
      ( "fang",
        [ Alcotest.test_case "similar throughput to CWL" `Slow
            test_fang_similar_throughput;
          Alcotest.test_case "recovers a sealed prefix" `Slow
            test_fang_recovers_prefix ] );
      ( "cache-impl",
        [ Alcotest.test_case "model vs implementation" `Slow test_cache_impl ]
      );
      ("wear", [ Alcotest.test_case "by model" `Slow test_wear_exp ]);
      ( "params",
        [ Alcotest.test_case "validation" `Quick test_queue_params_validation ]
      );
      ( "run",
        [ Alcotest.test_case "one run, many configs"
            `Quick test_shared_analysis ] ) ]
