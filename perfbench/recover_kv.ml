(* recover-kv: one KV epoch-undo run (2 threads x 128 ops) recorded
   with its persist graph at set-up, then sampled failure injection
   over that one large graph.  Exploration is bypassed and the machine
   runs only at set-up.  The run itself is the KV sweep's default one;
   the seed draws the crash states, so every seed checks different
   prefixes of a graph of the same cost. *)

module Ps = Persistency

let name = "recover-kv"
let work_name = "crash_states_per_s"
let work_unit = "prefixes/s"

let threads = 2
let total_ops = 256
let samples = 30

type state = {
  params : Kv.params;
  layout : Kv.layout;
  graph : Ps.Persist_graph.t;
  metrics : Experiments.Kv_exp.metrics;
  strategy : Recovery.strategy;
}

let setup ~seed lr =
  let params =
    Experiments.Kv_exp.kv_params ~threads ~total_ops Ps.Config.Epoch
  in
  let metrics, graph, layout =
    Layers.span ~metric:"engine.graph_s" lr "engine.graph" (fun () ->
        Experiments.Kv_exp.analyze_with_graph params
          (Ps.Config.make Ps.Config.Epoch))
  in
  Layers.set lr "engine.graph_nodes"
    (float_of_int (Ps.Persist_graph.node_count graph));
  { params; layout; graph; metrics;
    strategy = Recovery.Sampled { samples; seed } }

let outcome st verdict =
  let m = st.metrics in
  let i = string_of_int in
  let graph =
    [ ("graph.nodes", i (Ps.Persist_graph.node_count st.graph));
      ("graph.critical_path", i m.Experiments.Kv_exp.critical_path);
      ("graph.persist_events", i m.Experiments.Kv_exp.persist_events);
      ("cuts_sampled", i samples) ]
  in
  match verdict with
  | Ok r ->
    { Workload.outputs =
        graph @ [ ("prefixes", i r.Recovery.prefixes); ("verdict", "ok") ];
      work = float_of_int r.Recovery.prefixes }
  | Error f ->
    { Workload.outputs =
        graph
        @ [ ("prefixes", i (f.Recovery.prefixes_ok + 1));
            ("verdict", "violation") ];
      work = float_of_int (f.Recovery.prefixes_ok + 1) }

let round st =
  outcome st
    (Kv_recovery.verify ~params:st.params ~layout:st.layout ~graph:st.graph
       ~strategy:st.strategy)

(* [Kv_recovery.verify] is [Recovery.check] with the KV checker as the
   observer; composing the two lets the decoder be timed apart. *)
let traced_round st lr =
  let checker = Kv_recovery.checker ~params:st.params ~layout:st.layout in
  let verdict =
    Layers.span ~metric:"recovery.busy_s" lr "recovery.check" (fun () ->
        Recovery.check ~graph:st.graph
          ~capacity:(Kv_recovery.image_capacity st.layout)
          ~strategy:st.strategy
          (fun image ->
            Layers.timed lr "recovery.observer_s" (fun () -> checker image)))
  in
  let o = outcome st verdict in
  let g = Layers.get lr in
  Layers.set lr "recovery.checks" 1.;
  Layers.set lr "recovery.prefixes" o.Workload.work;
  Layers.set lr "recovery.self_s"
    (g "recovery.busy_s" -. g "recovery.observer_s");
  Layers.set lr "recovery.prefixes_per_s"
    (Layers.ratio o.Workload.work (g "recovery.busy_s"));
  Layers.set lr "recovery.dup_ratio"
    (Layers.ratio
       (float_of_int samples -. o.Workload.work)
       (float_of_int samples));
  Layers.set lr "attributed_s" (g "recovery.busy_s");
  o

let final_check _ = []
