module P = Persistency
module Om = Obs.Metrics

let m_checks = Om.counter Om.default "recovery.checks"
let m_prefixes = Om.counter Om.default "recovery.prefixes"
let m_dup_cuts = Om.counter Om.default "recovery.duplicate_cuts"
let m_violations = Om.counter Om.default "recovery.violations"
let m_inject_rate = Om.gauge_max Om.default "recovery.injections_per_sec"

let prefix_buckets = Om.pow2_buckets 13

let m_prefix_size =
  Om.histogram Om.default ~buckets:prefix_buckets "recovery.prefix_size"

type observer = bytes -> (unit, string) result
type cut_observer = cut:P.Iset.t -> bytes -> (unit, string) result

type strategy =
  | Sampled of { samples : int; seed : int }
  | Exhaustive

type failure = {
  durable : int;
  total : int;
  prefixes_ok : int;
  message : string;
}

type report = {
  prefixes : int;
  nodes : int;
}

let render_failure f =
  Printf.sprintf "crash state with %d/%d persists durable: %s" f.durable
    f.total f.message

let strategy_name = function
  | Sampled _ -> "sampled"
  | Exhaustive -> "exhaustive"

(* Span argument strings are only built when tracing is on. *)
let traced ~strategy ~graph f =
  if Obs.Tracer.enabled () then
    Obs.Tracer.with_span ~cat:"recovery"
      ~args:
        [ ("strategy", strategy_name strategy);
          ("nodes", string_of_int (P.Persist_graph.node_count graph)) ]
      "recovery.check" f
  else f ()

(* Walk the prefixes the strategy yields, checking each one.  The two
   strategies share the per-prefix body so accounting and failure
   reporting cannot drift, and one DAG built up front serves both the
   walk and every prefix's legality check. *)
let check_cuts ~graph ~capacity ~strategy observer =
  traced ~strategy ~graph @@ fun () ->
  Om.incr m_checks;
  let span =
    if Om.enabled Om.default then Some (Obs.Perfscope.start ()) else None
  in
  let total = P.Persist_graph.node_count graph in
  let dag = P.Persist_graph.to_dag graph in
  let checked = ref 0 in
  let injected = ref 0 in
  (* [Some failure] if the prefix does not recover *)
  let try_prefix cut =
    incr injected;
    let image = P.Observer.image_of_cut graph ~dag cut ~capacity in
    Om.incr m_prefixes;
    if Om.enabled Om.default then
      Om.observe m_prefix_size (float_of_int (P.Iset.cardinal cut));
    match observer ~cut image with
    | Ok () ->
      incr checked;
      None
    | Error message ->
      Om.incr m_violations;
      Some
        { durable = P.Iset.cardinal cut;
          total;
          prefixes_ok = !checked;
          message }
  in
  let cuts =
    match strategy with
    | Exhaustive -> List.to_seq (P.Dag.all_down_closed dag)
    | Sampled { samples; seed } ->
      (* The rng draws exactly [samples] cuts in a seed-stable order,
         but a duplicate of an already-checked cut is only counted as
         a duplicate, not re-checked: the verdict cannot change (its
         first occurrence already passed) and re-checking would let
         [report.prefixes] overstate distinct crash-state coverage.
         The sequence is lazy, so drawing stops at the first failure.
         The key has a byte per node: hashing an id list reads only the
         first few ids, which nearly every cut shares. *)
      let rng = Random.State.make [| seed |] in
      let seen = Hashtbl.create 64 in
      Seq.init (max samples 0) (fun _ -> P.Dag.random_down_closed dag rng)
      |> Seq.filter (fun cut ->
             let key = Bytes.make total '\000' in
             P.Iset.iter (fun v -> Bytes.set key v '\001') cut;
             let dup = Hashtbl.mem seen key in
             if dup then Om.incr m_dup_cuts else Hashtbl.add seen key ();
             not dup)
  in
  let result = Seq.find_map try_prefix cuts in
  (match span with
  | Some s ->
    let d = Obs.Perfscope.finish s in
    Obs.Perfscope.throughput m_inject_rate ~items:!injected
      ~seconds:d.Obs.Perfscope.wall_s
  | None -> ());
  match result with
  | None -> Ok { prefixes = !checked; nodes = total }
  | Some f -> Error f

let check ~graph ~capacity ~strategy observer =
  check_cuts ~graph ~capacity ~strategy (fun ~cut:_ image -> observer image)

(* 2^20 prefixes is the most an exhaustive walk should attempt; the
   [all_down_closed] hard ceiling is 24 nodes, but graphs that dense
   are already better sampled. *)
let auto ?(exhaustive_limit = 20) ~samples ~seed graph =
  if exhaustive_limit > 24 then
    invalid_arg "Recovery.auto: exhaustive_limit must be <= 24";
  if P.Persist_graph.node_count graph <= exhaustive_limit then Exhaustive
  else Sampled { samples; seed }
