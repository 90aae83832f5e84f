(* The domain pool under lib/parallel: order preservation, parallel ==
   sequential on every experiment sweep, deterministic exception
   propagation, and the edge cases the experiment drivers rely on. *)

module Pool = Parallel.Pool

let test_order_preserved () =
  let cells = List.init 57 Fun.id in
  let expected = List.map (fun i -> (i * i) + 1) cells in
  let seq = Pool.map_cells ~domains:1 (fun i -> (i * i) + 1) cells in
  let par = Pool.map_cells ~domains:4 (fun i -> (i * i) + 1) cells in
  Alcotest.(check (list int)) "sequential order" expected seq;
  Alcotest.(check (list int)) "parallel order" expected par

(* Uneven per-cell cost lets one domain run several cheap cells while
   another runs one dear one; order must still hold. *)
let test_order_uneven_cost () =
  let cells = List.init 24 Fun.id in
  let work i =
    let n = if i mod 7 = 0 then 200_000 else 50 in
    let acc = ref i in
    for k = 1 to n do
      acc := (!acc * 31) + k
    done;
    (i, !acc)
  in
  let seq = Pool.map_cells ~domains:1 work cells in
  let par = Pool.map_cells ~domains:4 work cells in
  Alcotest.(check (list (pair int int))) "uneven cells keep order" seq par

(* Every sweep renders byte-identically no matter the domain count, with
   one pool cell per workload setting: a cell is one machine run,
   analyzed under every model point and engine config that reads it.  Each entry runs a sweep
   at [jobs] and returns its output and its cell count. *)
let sweeps =
  let module A = Experiments.Ablation in
  let module G = Experiments.Granularity in
  let cells (p : Pool.profile) = List.length p.Pool.cells in
  let figure which jobs =
    let t = G.run ~jobs ~total_inserts:300 which in
    (G.render t ^ G.to_csv t, cells t.G.profile)
  in
  (* an ablation section reports its profile through [on_profile] *)
  let ablation f jobs =
    let n = ref 0 in
    let out = f ~jobs ~on_profile:(fun p -> n := !n + cells p) in
    (out, !n)
  in
  let compared c = A.render_comparisons ~title:"" c in
  [ ( "fig3",
      1,
      fun jobs ->
        let t = Experiments.Fig3.run ~jobs ~total_inserts:300 () in
        ( Experiments.Fig3.render t ^ Experiments.Fig3.to_csv t,
          cells t.Experiments.Fig3.profile ) );
    ("fig4", 1, figure G.Atomic_persist);
    ("fig5", 1, figure G.Tracking);
    ( "ablation tso+spaces",
      2,
      ablation (fun ~jobs ~on_profile ->
          let c = A.conflicts ~jobs ~on_profile ~total_inserts:200 () in
          compared c.A.tso ^ compared c.A.spaces) );
    ( "ablation coalesce",
      1,
      ablation (fun ~jobs ~on_profile ->
          compared (A.coalescing ~jobs ~on_profile ~total_inserts:200 ())) );
    ( "ablation buffer+sync",
      1,
      ablation (fun ~jobs ~on_profile ->
          let g = A.model_graphs ~jobs ~on_profile ~total_inserts:200 () in
          A.render_buffer (A.buffer_depth g) ^ A.render_sync (A.persist_sync g))
    );
    ( "ablation capacity",
      2,
      ablation (fun ~jobs ~on_profile ->
          A.render_capacity
            (A.capacity ~jobs ~on_profile ~capacities:[ 8; 16 ]
               ~total_inserts:200 ())) );
    ( "wear",
      1,
      fun jobs ->
        let t = Experiments.Wear_exp.run ~jobs ~total_inserts:200 () in
        (Experiments.Wear_exp.render t, cells t.Experiments.Wear_exp.profile) );
    ( "consistency",
      2,
      fun jobs ->
        let t = Experiments.Consistency_exp.run ~jobs ~total_inserts:320 () in
        ( Experiments.Consistency_exp.render t,
          cells t.Experiments.Consistency_exp.profile ) );
    ( "table1",
      4,
      fun jobs ->
        let t = Experiments.Table1.run ~jobs ~total_inserts:80 () in
        ( Experiments.Table1.render t ^ Experiments.Table1.to_csv t,
          cells t.Experiments.Table1.profile ) );
    ( "kv",
      6,
      fun jobs ->
        let t = Experiments.Kv_exp.run ~jobs ~total_ops:64 () in
        ( Experiments.Kv_exp.render t ^ Experiments.Kv_exp.to_csv t,
          cells t.Experiments.Kv_exp.profile ) );
    ( "validate",
      6,
      fun jobs ->
        let t = Experiments.Validation.run ~jobs ~total_inserts:200 () in
        ( Experiments.Validation.render t,
          cells t.Experiments.Validation.profile ) );
    ( "machine",
      6,
      fun jobs ->
        let t = Experiments.Machine_exp.run ~jobs ~total_inserts:64 () in
        ( Experiments.Machine_exp.render t,
          cells t.Experiments.Machine_exp.profile ) );
    ( "serve",
      18,
      fun jobs ->
        let t =
          Experiments.Serve_exp.run ~jobs ~requests:96 ~rate:64. ~key_space:32
            ~shards_list:[ 1; 2 ] ~batches:[ 1; 8; 32 ] ()
        in
        ( Experiments.Serve_exp.render t ^ Experiments.Serve_exp.to_csv t,
          cells t.Experiments.Serve_exp.profile ) );
    ( "lockfree",
      18,
      fun jobs ->
        let t = Experiments.Lockfree_exp.run ~jobs ~inserts:16 () in
        ( Experiments.Lockfree_exp.render t ^ Experiments.Lockfree_exp.to_csv t,
          cells t.Experiments.Lockfree_exp.profile ) ) ]

(* One domain is the calling domain running the cells in input order:
   nothing is spawned and nothing is reordered. *)
let test_one_domain_in_order () =
  let self = Domain.self () in
  let calls = ref [] in
  let f i =
    calls := (i, Domain.self () = self) :: !calls;
    i
  in
  let cells = List.init 9 Fun.id in
  let results, profile = Pool.map_cells_profiled ~domains:1 f cells in
  Alcotest.(check (list int)) "results" cells results;
  Alcotest.(check (list (pair int bool)))
    "called in input order on the calling domain"
    (List.map (fun i -> (i, true)) cells)
    (List.rev !calls);
  Alcotest.(check int) "one domain" 1 profile.Pool.domains

let test_jobs_identical (_, traces, run) () =
  let out1, cells1 = run 1 and out4, cells4 = run 4 in
  Alcotest.(check string) "output identical" out1 out4;
  Alcotest.(check (pair int int)) "one cell per trace" (traces, traces)
    (cells1, cells4)

let test_exception_propagates () =
  let cells = [ "ok-a"; "boom"; "ok-b" ] in
  let f s = if s = "boom" then failwith ("exploded: " ^ s) else s in
  match
    Pool.map_cells ~domains:4 ~label:(fun i s -> Printf.sprintf "%d:%s" i s)
      f cells
  with
  | _ -> Alcotest.fail "expected Cell_error"
  | exception Pool.Cell_error { index; label; message; _ } ->
    Alcotest.(check int) "failing index" 1 index;
    Alcotest.(check string) "failing label" "1:boom" label;
    Alcotest.(check bool) "message carries payload" true
      (let is_sub s sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         go 0
       in
       is_sub message "exploded: boom")

(* Two failing cells: the lowest index wins regardless of which domain
   finished first, and the surviving cells still executed. *)
let test_lowest_failure_wins () =
  let executed = Array.make 6 false in
  let f i =
    executed.(i) <- true;
    if i = 4 || i = 2 then failwith (Printf.sprintf "cell %d" i) else i
  in
  (match Pool.map_cells ~domains:3 f (List.init 6 Fun.id) with
  | _ -> Alcotest.fail "expected Cell_error"
  | exception Pool.Cell_error { index; _ } ->
    Alcotest.(check int) "lowest failing index" 2 index);
  Alcotest.(check bool) "non-failing cells still ran" true
    (executed.(0) && executed.(1) && executed.(3) && executed.(5))

let test_empty_and_single () =
  Alcotest.(check (list int)) "empty list" []
    (Pool.map_cells ~domains:4 (fun i -> i) []);
  Alcotest.(check (list string)) "single cell" [ "only" ]
    (Pool.map_cells ~domains:4 String.lowercase_ascii [ "ONLY" ]);
  Alcotest.(check (list int)) "domains:0 degrades to sequential" [ 2; 4 ]
    (Pool.map_cells ~domains:0 (fun i -> 2 * i) [ 1; 2 ])

let test_profile () =
  let cells = [ "a"; "b"; "c" ] in
  let results, profile =
    Pool.map_cells_profiled ~domains:2 ~label:(fun _ s -> s)
      String.uppercase_ascii cells
  in
  Alcotest.(check (list string)) "results" [ "A"; "B"; "C" ] results;
  Alcotest.(check (list string)) "profile cells in input order" cells
    (List.map fst profile.Pool.cells);
  Alcotest.(check bool) "wall clock non-negative" true
    (profile.Pool.wall_seconds >= 0.);
  Alcotest.(check bool) "cell times non-negative" true
    (List.for_all (fun (_, s) -> s >= 0.) profile.Pool.cells);
  Alcotest.(check bool) "at most requested domains" true
    (profile.Pool.domains >= 1 && profile.Pool.domains <= 2);
  let footer = Pool.render_profile profile in
  Alcotest.(check bool) "footer mentions sweep profile" true
    (String.length footer > 0
    && String.sub footer 0 (String.length "sweep profile")
       = "sweep profile")

(* Graph recording keeps per-graph scratch state (the frontier
   reduction's stamp arrays): engines recording on two domains at once
   must produce the same graphs as one domain recording them in turn. *)
let test_graph_recording_domain_safe () =
  let module P = Persistency in
  let kv seed =
    let params =
      Experiments.Kv_exp.kv_params ~threads:2 ~total_ops:128 ~seed
        P.Config.Epoch
    in
    let cfg = P.Config.make P.Config.Epoch in
    let _, graph, _ = Experiments.Kv_exp.analyze_with_graph params cfg in
    P.Graph_export.fingerprint graph
  in
  let cells = List.init 6 (fun i -> i + 1) in
  let seq = Pool.map_cells ~domains:1 kv cells in
  let par = Pool.map_cells ~domains:2 kv cells in
  Alcotest.(check int)
    "distinct graphs" (List.length cells)
    (List.length (List.sort_uniq compare seq));
  Alcotest.(check (list string)) "same fingerprints" seq par

let test_default_domains () =
  Alcotest.(check bool) "default_domains >= 1" true (Pool.default_domains () >= 1)

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "order under uneven cost" `Quick
            test_order_uneven_cost ]
        @ List.map
            (fun ((name, _, _) as sweep) ->
              Alcotest.test_case
                (Printf.sprintf "%s --jobs 1 == --jobs 4" name)
                `Quick (test_jobs_identical sweep))
            sweeps
        @ [ Alcotest.test_case "exception propagates with label" `Quick
              test_exception_propagates;
            Alcotest.test_case "lowest-indexed failure wins" `Quick
              test_lowest_failure_wins;
            Alcotest.test_case "empty and single cell" `Quick
              test_empty_and_single;
            Alcotest.test_case "profile accounting" `Quick test_profile;
            Alcotest.test_case "default domain count" `Quick
              test_default_domains;
            Alcotest.test_case "graph recording across domains" `Quick
              test_graph_recording_domain_safe;
            Alcotest.test_case "one domain runs in input order" `Quick
              test_one_domain_in_order ] ) ]
