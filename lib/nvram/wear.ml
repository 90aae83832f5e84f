type t = {
  total_writes : int;
  distinct_blocks : int;
  max_writes : int;
  mean_writes : float;
  skew : float;
}

let of_graph ?(gran = 8) graph =
  if gran < 8 || not (Memsim.Addr.is_power_of_two gran) then
    invalid_arg "Wear.of_graph: granularity must be a power of two >= 8";
  let counts : (int, int ref) Hashtbl.t = Hashtbl.create 1024 in
  let total = ref 0 in
  Persistency.Persist_graph.iter
    (fun node ->
      (* one NVRAM write per atomic persist per block it covers *)
      let blocks = Hashtbl.create 4 in
      Memsim.Vec.iter
        (fun (w : Persistency.Persist_graph.write) ->
          Hashtbl.replace blocks (Memsim.Addr.block ~gran w.addr) ())
        node.Persistency.Persist_graph.writes;
      Hashtbl.iter
        (fun b () ->
          incr total;
          match Hashtbl.find_opt counts b with
          | Some r -> incr r
          | None -> Hashtbl.add counts b (ref 1))
        blocks)
    graph;
  let distinct = Hashtbl.length counts in
  let max_w = Hashtbl.fold (fun _ r acc -> max acc !r) counts 0 in
  let mean =
    if distinct = 0 then 0. else float_of_int !total /. float_of_int distinct
  in
  { total_writes = !total;
    distinct_blocks = distinct;
    max_writes = max_w;
    mean_writes = mean;
    skew = (if mean = 0. then 0. else float_of_int max_w /. mean) }
