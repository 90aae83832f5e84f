(* Tests for the supporting libraries: statistics, reporting, and
   calibration. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* Summary *)

let test_percentile_edges () =
  let p = Pstats.Summary.percentile in
  checkb "empty is nan" true (Float.is_nan (p 0.5 []));
  checkf "single sample p0" 7. (p 0. [ 7. ]);
  checkf "single sample p50" 7. (p 0.5 [ 7. ]);
  checkf "single sample p100" 7. (p 1. [ 7. ]);
  let xs = List.init 20 (fun i -> float_of_int (i + 1)) in
  checkf "p0 is the minimum" 1. (p 0. xs);
  checkf "p100 is the maximum" 20. (p 1. xs);
  (* 0.95 *. 20. carries float noise (19.000000000000004): a bare ceil
     would misreport p95 of 20 samples as the maximum *)
  checkf "p95 of 20 is the 19th order statistic" 19. (p 0.95 xs);
  checkf "p50 of 20" 10. (p 0.5 xs);
  checkf "p99 of 20 rounds up to the maximum" 20. (p 0.99 xs);
  let three = [ 30.; 10.; 20. ] in
  checkf "p100 of unsorted" 30. (p 1. three);
  checkf "p34 of 3" 20. (p 0.34 three);
  Alcotest.match_raises "p > 1 rejected"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (p 1.5 xs));
  Alcotest.match_raises "p < 0 rejected"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (p (-0.1) xs))

let test_summary_basic () =
  let s = Pstats.Summary.of_list [ 1.; 2.; 3.; 4. ] in
  checki "count" 4 (Pstats.Summary.count s);
  checkf "mean" 2.5 (Pstats.Summary.mean s);
  checkf "total" 10. (Pstats.Summary.total s);
  checkf "min" 1. (Pstats.Summary.min_value s);
  checkf "max" 4. (Pstats.Summary.max_value s);
  Alcotest.(check (float 1e-6)) "variance" (5. /. 3.) (Pstats.Summary.variance s)

let test_summary_empty () =
  let s = Pstats.Summary.create () in
  checkb "nan mean" true (Float.is_nan (Pstats.Summary.mean s));
  checkb "nan variance" true (Float.is_nan (Pstats.Summary.variance s));
  Pstats.Summary.add s 5.;
  checkf "single mean" 5. (Pstats.Summary.mean s);
  checkb "variance needs two" true (Float.is_nan (Pstats.Summary.variance s))

let test_summary_welford_stability () =
  (* shifted data: variance must not blow up *)
  let base = 1e9 in
  let s = Pstats.Summary.of_list [ base +. 1.; base +. 2.; base +. 3. ] in
  Alcotest.(check (float 1e-3)) "shifted variance" 1. (Pstats.Summary.variance s)

(* Histogram *)

let test_histogram () =
  let h = Pstats.Histogram.create () in
  List.iter (Pstats.Histogram.add h) [ 1; 1; 2; 3; 3; 3 ];
  checki "count" 6 (Pstats.Histogram.count h);
  checkf "freq 3" 0.5 (Pstats.Histogram.frequency h 3);
  checkf "freq missing" 0. (Pstats.Histogram.frequency h 9);
  Alcotest.(check (list int)) "support" [ 1; 2; 3 ] (Pstats.Histogram.support h);
  Alcotest.(check (list (pair int int))) "alist"
    [ (1, 2); (2, 1); (3, 3) ]
    (Pstats.Histogram.to_alist h)

let test_histogram_tvd () =
  let mk l =
    let h = Pstats.Histogram.create () in
    List.iter (Pstats.Histogram.add h) l;
    h
  in
  let a = mk [ 1; 1; 2; 2 ] and b = mk [ 1; 1; 2; 2 ] in
  checkf "identical" 0. (Pstats.Histogram.total_variation_distance a b);
  let c = mk [ 3; 3 ] in
  checkf "disjoint" 1. (Pstats.Histogram.total_variation_distance a c);
  let d = mk [ 1; 2; 2; 2 ] in
  checkf "partial" 0.25 (Pstats.Histogram.total_variation_distance a d)

(* Table *)

let test_table_render () =
  let t =
    Report.Table.create
      ~columns:[ ("name", Report.Table.Left); ("value", Report.Table.Right) ]
  in
  Report.Table.add_row t [ "alpha"; "1" ];
  Report.Table.add_separator t;
  Report.Table.add_row t [ "b"; "23" ];
  let s = Report.Table.render t in
  checkb "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  checkb "right aligned" true
    (List.exists
       (fun line -> line = "alpha      1")
       (String.split_on_char '\n' s));
  Alcotest.match_raises "arity"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Report.Table.add_row t [ "only-one" ])

let test_table_formats () =
  Alcotest.(check string) "float" "1.500" (Report.Table.fmt_float 1.5);
  Alcotest.(check string) "nan" "-" (Report.Table.fmt_float Float.nan);
  Alcotest.(check string) "rate M" "4.00M/s" (Report.Table.fmt_rate 4e6);
  Alcotest.(check string) "rate k" "1.50k/s" (Report.Table.fmt_rate 1500.);
  Alcotest.(check string) "rate inf" "inf" (Report.Table.fmt_rate Float.infinity);
  Alcotest.(check string) "bold" "*x*" (Report.Table.fmt_bold_if true "x");
  Alcotest.(check string) "plain" "x" (Report.Table.fmt_bold_if false "x")

(* Chart *)

let test_chart_render () =
  let s =
    { Report.Chart.label = "a"; glyph = '*';
      points = [ (1., 1.); (10., 100.); (100., 10000.) ] }
  in
  let out =
    Report.Chart.render
      ~axes:{ Report.Chart.log_x = true; log_y = true; width = 20; height = 6 }
      ~title:"t" [ s ]
  in
  checkb "has title" true (String.length out > 0 && out.[0] = 't');
  checkb "has glyph" true (String.contains out '*');
  checkb "has legend" true
    (let lines = String.split_on_char '\n' out in
     List.exists (fun l -> l = "* = a") lines);
  (* log-log straight line: the glyph should appear on a diagonal *)
  let rows =
    List.filter (fun l -> String.contains l '|') (String.split_on_char '\n' out)
  in
  checki "plot rows" 6 (List.length rows)

let test_chart_validation () =
  Alcotest.match_raises "empty"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Report.Chart.render ~title:"t" []));
  Alcotest.match_raises "log of zero"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore
        (Report.Chart.render
           ~axes:{ Report.Chart.default_axes with Report.Chart.log_x = true }
           ~title:"t"
           [ { Report.Chart.label = "a"; glyph = 'x'; points = [ (0., 1.) ] } ]))

let test_chart_flat_series () =
  (* constant y must not divide by zero *)
  let out =
    Report.Chart.render ~title:"flat"
      [ { Report.Chart.label = "c"; glyph = 'c';
          points = [ (0., 5.); (1., 5.) ] } ]
  in
  checkb "renders" true (String.length out > 0)

(* Csv *)

let test_csv () =
  Alcotest.(check string) "plain" "a,b" (Report.Csv.row [ "a"; "b" ]);
  Alcotest.(check string) "escaped comma" "\"a,b\",c"
    (Report.Csv.row [ "a,b"; "c" ]);
  Alcotest.(check string) "escaped quote" "\"say \"\"hi\"\"\""
    (Report.Csv.row [ "say \"hi\"" ]);
  Alcotest.(check string) "document" "h1,h2\n1,2\n"
    (Report.Csv.to_string ~header:[ "h1"; "h2" ] [ [ "1"; "2" ] ])

(* Calibrate *)

let test_calibrate_defaults () =
  checkf "cwl 1T (paper-derived)" 250.
    (Calibrate.default_insn_ns ~design:Workloads.Queue.Cwl ~threads:1);
  checkb "2lc slower than cwl at 1T" true
    (Calibrate.default_insn_ns ~design:Workloads.Queue.Tlc ~threads:1
    > Calibrate.default_insn_ns ~design:Workloads.Queue.Cwl ~threads:1)

let test_calibrate_measurement () =
  (* a tiny native run: just verify it produces a sane positive cost *)
  let ns =
    Calibrate.measure_native_ns ~inserts:20_000 ~design:Workloads.Queue.Cwl
      ~threads:1 ()
  in
  checkb "positive" true (ns > 0.);
  checkb "below 100us/insert" true (ns < 100_000.)

let () =
  Alcotest.run "support"
    [ ( "summary",
        [ Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "stability" `Quick test_summary_welford_stability
        ] );
      ( "histogram",
        [ Alcotest.test_case "basic" `Quick test_histogram;
          Alcotest.test_case "tvd" `Quick test_histogram_tvd ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats ] );
      ( "chart",
        [ Alcotest.test_case "render" `Quick test_chart_render;
          Alcotest.test_case "validation" `Quick test_chart_validation;
          Alcotest.test_case "flat series" `Quick test_chart_flat_series ] );
      ("csv", [ Alcotest.test_case "escaping" `Quick test_csv ]);
      ( "calibrate",
        [ Alcotest.test_case "defaults" `Quick test_calibrate_defaults;
          Alcotest.test_case "measurement" `Slow test_calibrate_measurement ] )
    ]
