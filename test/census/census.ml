(* The depth-3 DPOR vs brute-force census: CWL under epoch persistency,
   2 threads x 3 inserts.  DPOR must reach the same distinct-graph and
   recovery-verdict census as brute force with strictly fewer executed
   traces; both counts are pinned and every graph must be safe.  Brute
   force explores 423,556 traces, so this runs as [make census] rather
   than in [dune runtest], which keeps the depth-2 equivalences.

   Run with: dune exec test/census/census.exe *)

open Equivalence

let test_queue_equivalence_depth3 () =
  let stats, o, dpor =
    check_equivalence "cwl/epoch d3" ~limit:500_000
      (queue_run ~depth:3 Q.Epoch Ps.Config.Epoch)
  in
  Alcotest.(check int) "distinct graphs" 20 (Hashtbl.length dpor);
  Alcotest.(check int) "dpor schedules" 212 stats.D.schedules;
  Alcotest.(check int) "brute traces" 423_556 o.Memsim.Explore.traces;
  List.iter
    (fun (fp, v) -> Alcotest.(check string) ("verdict " ^ fp) "safe" v)
    (verdict_map dpor)

let () =
  Alcotest.run "census"
    [ ( "equivalence",
        [ Alcotest.test_case "cwl depth 3 vs brute (acceptance)" `Quick
            test_queue_equivalence_depth3 ] ) ]
