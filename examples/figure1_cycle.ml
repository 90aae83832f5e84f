(* Figure 1 of the paper: why store visibility must not reorder across
   persist barriers when strong persist atomicity is guaranteed.

   Two threads persist to objects A and B in opposite program orders,
   each separated by a persist barrier:

     Thread 1: persist A; barrier; persist B
     Thread 2: persist B; barrier; persist A

   Suppose thread 1's stores become *visible* out of program order (a
   relaxed consistency model): its store to B is visible before thread
   2's, but its store to A drifts past thread 2's.  The coherence
   orders are then  B: B1 -> B2  and  A: A2 -> A1.

   Persist barriers require   A1 -> B1  and  B2 -> A2.
   Strong persist atomicity requires the coherence orders B1 -> B2 and
   A2 -> A1.  Together: A1 -> B1 -> B2 -> A2 -> A1 — a cycle; no
   persist order can satisfy the constraints.  The paper resolves this
   by either coupling persist and store barriers (store visibility may
   not reorder across persist barriers) or relaxing strong persist
   atomicity.

   This example builds exactly that constraint set with the library's
   DAG machinery and shows the cycle being detected, then shows both
   resolutions making the constraints satisfiable.  Exits 1 if any of
   the three verdicts comes out otherwise.

   Run with: dune exec examples/figure1_cycle.exe *)

module Dag = Persistency.Dag

let a1 = 0 (* thread 1's persist to A *)
let b1 = 1 (* thread 1's persist to B *)
let b2 = 2 (* thread 2's persist to B *)
let a2 = 3 (* thread 2's persist to A *)
let name = function
  | 0 -> "A1"
  | 1 -> "B1"
  | 2 -> "B2"
  | _ -> "A2"

(* The constraint graph of [(u, v)] edges, "u persists before v". *)
let of_edges edges =
  let preds = Array.make 4 [] in
  List.iter (fun (u, v) -> preds.(v) <- u :: preds.(v)) edges;
  Dag.of_preds (Array.map Array.of_list preds)

let build ~barriers ~atomicity =
  of_edges
    ((if barriers then
        [ (a1, b1);  (* thread 1's persist barrier *)
          (b2, a2) ]  (* thread 2's persist barrier *)
      else [])
    @
    if atomicity then
      [ (b1, b2);  (* coherence order of B: B1 first *)
        (a2, a1) ]  (* coherence order of A: A2 first (thread 1's
                       store to A became visible late) *)
    else [])

(* Prints the verdict on [g]; returns whether it is satisfiable. *)
let report ~title g =
  Printf.printf "%s\n" title;
  match Dag.topo_sort g with
  | None ->
    print_endline "  -> constraint CYCLE: no legal persist order exists\n";
    false
  | Some order ->
    Printf.printf "  -> satisfiable; one legal persist order: %s\n\n"
      (String.concat " -> " (List.map name order));
    true

let () =
  let cycle =
    report
      ~title:
        "persist barriers + strong persist atomicity, store visibility reordered"
      (build ~barriers:true ~atomicity:true)
  in
  let coupled =
    report
      ~title:
        "resolution 1: couple persist and store barriers (visibility kept in \
         program order,\nso coherence gives A1->A2 and B1->B2 instead)"
      (of_edges [ (a1, b1); (b2, a2); (a1, a2); (b1, b2) ])
  in
  let relaxed =
    report
      ~title:"resolution 2: relax strong persist atomicity (barriers only)"
      (build ~barriers:true ~atomicity:false)
  in
  if cycle || not (coupled && relaxed) then begin
    prerr_endline "figure1_cycle: a verdict differs from the paper's Figure 1";
    exit 1
  end
