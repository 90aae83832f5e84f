(* Figure 2 of the paper: persist ordering dependences of the queue.

   Recovery needs exactly (solid arrows in the figure):
     - each insert's head update after that insert's data persists;
     - head updates in insert order.
   Strict persistency additionally serializes the data persists inside
   an entry ("A") and serializes everything across inserts ("B");
   epoch persistency removes A; strand persistency removes B.

   This example runs a small single-thread Copy While Locked queue
   under each model, classifies the edges of the resulting persist
   dependence graph by the kind of nodes they connect, and prints the
   counts — watching A and then B disappear.  Exits 1 if a model keeps
   an edge kind it should remove, removes one it should keep, or loses
   the required data->head edges.

   Run with: dune exec examples/queue_dependences.exe *)

module P = Persistency
module Q = Workloads.Queue

let classify layout graph =
  let is_head id =
    let n = P.Persist_graph.get graph id in
    Memsim.Vec.fold_left
      (fun acc (w : P.Persist_graph.write) ->
        acc || w.addr = layout.Q.head_addr)
      false n.P.Persist_graph.writes
  in
  (* Count transitively reduced edges: a recorded dependence that is
     already implied through another dependence is not a distinct arrow
     in the paper's figure. *)
  let dag = P.Persist_graph.dag graph in
  let ancestors = Hashtbl.create 64 in
  let ancestors_of id =
    match Hashtbl.find_opt ancestors id with
    | Some s -> s
    | None ->
      let s = P.Dag.ancestors dag id in
      Hashtbl.add ancestors id s;
      s
  in
  let reduced_deps (n : P.Persist_graph.node) =
    P.Iset.filter
      (fun m ->
        not
          (P.Iset.exists
             (fun n' -> n' <> m && P.Iset.mem m (ancestors_of n'))
             n.P.Persist_graph.deps))
      n.P.Persist_graph.deps
  in
  let data_head = ref 0 (* required: entry data -> its head update *)
  and head_head = ref 0 (* required: head updates in insert order *)
  and data_data = ref 0 (* "A": serialized data persists *)
  and head_data = ref 0 (* "B": previous insert -> next insert's data *) in
  P.Persist_graph.iter
    (fun n ->
      P.Iset.iter
        (fun dep ->
          match is_head dep, is_head n.P.Persist_graph.id with
          | false, true -> incr data_head
          | true, true -> incr head_head
          | false, false -> incr data_data
          | true, false -> incr head_data)
        (reduced_deps n))
    graph;
  (!data_head, !head_head, !data_data, !head_data)

let () =
  let ok = ref true in
  let points =
    [ Experiments.Run.strict_point;
      Experiments.Run.epoch_point;
      Experiments.Run.strand_point ]
  in
  Printf.printf
    "%-14s %10s %10s | %12s %12s\n" "model" "data->head" "head->head"
    "data->data(A)" "head->data(B)";
  List.iter
    (fun (point : Experiments.Run.model_point) ->
      let params =
        Experiments.Run.queue_params ~total_inserts:12 ~capacity_entries:16
          point
      in
      let cfg = P.Config.make point.Experiments.Run.mode in
      let _, graph, layout = Experiments.Run.analyze_with_graph params cfg in
      let data_head, head_head, data_data, head_data = classify layout graph in
      Printf.printf "%-14s %10d %10d | %12d %12d\n"
        point.Experiments.Run.label data_head head_head data_data head_data;
      let mode = point.Experiments.Run.mode in
      let keeps_a = mode = P.Config.Strict
      and keeps_b = mode <> P.Config.Strand in
      if data_head = 0 || keeps_a <> (data_data > 0) || keeps_b <> (head_data > 0)
      then begin
        Printf.eprintf "queue_dependences: unexpected edge counts under %s\n"
          point.Experiments.Run.label;
        ok := false
      end)
    points;
  print_endline
    "\nrequired constraints persist in every model; epoch persistency removes\n\
     the serialized data persists (A); strand persistency removes the\n\
     inter-insert serialization (B), leaving only what recovery needs";
  if not !ok then exit 1
