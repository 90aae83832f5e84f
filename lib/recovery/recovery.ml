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
   reporting cannot drift.  The graph's own crash-cut order serves the
   walk and every prefix's legality check, and one byte mask holds the
   prefix being checked: its dedup key, legality check and image all
   read the mask.  [observe] gets the prefix's set as a thunk, which a
   sampled walk forces only for an observer that reads the cut. *)
let check_masks ~graph ~capacity ~strategy observe =
  traced ~strategy ~graph @@ fun () ->
  Om.incr m_checks;
  let span =
    if Om.enabled Om.default then Some (Obs.Perfscope.start ()) else None
  in
  let total = P.Persist_graph.node_count graph in
  let dag = P.Persist_graph.dag graph in
  let mask = Bytes.make total '\000' in
  let durable () =
    let k = ref 0 in
    Bytes.iter (fun b -> if b <> '\000' then incr k) mask;
    !k
  in
  let checked = ref 0 in
  let injected = ref 0 in
  (* [Some failure] if the prefix held in [mask] does not recover *)
  let try_prefix cut =
    incr injected;
    let image = P.Observer.image_of_mask graph mask ~capacity in
    Om.incr m_prefixes;
    if Om.enabled Om.default then
      Om.observe m_prefix_size (float_of_int (durable ()));
    match observe cut image with
    | Ok () ->
      incr checked;
      None
    | Error message ->
      Om.incr m_violations;
      Some { durable = durable (); total; prefixes_ok = !checked; message }
  in
  let result =
    match strategy with
    | Exhaustive ->
      List.find_map
        (fun cut ->
          P.Dag.fill_mask dag cut mask;
          try_prefix (fun () -> cut))
        (P.Dag.all_down_closed dag)
    | Sampled { samples; seed } ->
      (* The rng draws exactly [samples] cuts in a seed-stable order,
         but a duplicate of an already-checked cut is only counted as
         a duplicate, not re-checked: the verdict cannot change (its
         first occurrence already passed) and re-checking would let
         [report.prefixes] overstate distinct crash-state coverage.
         Drawing stops at the first failure.  The key is the mask, a
         byte per node: hashing an id list reads only the first few
         ids, which nearly every cut shares. *)
      let rng = Random.State.make [| seed |] in
      let draw_into = P.Dag.sampler dag in
      let seen = Hashtbl.create 64 in
      let cut () = P.Dag.set_of_mask dag mask in
      let rec draw i =
        if i >= samples then None
        else begin
          draw_into rng mask;
          if Hashtbl.mem seen mask then begin
            Om.incr m_dup_cuts;
            draw (i + 1)
          end
          else begin
            Hashtbl.add seen (Bytes.copy mask) ();
            match try_prefix cut with
            | None -> draw (i + 1)
            | Some _ as failure -> failure
          end
        end
      in
      draw 0
  in
  (match span with
  | Some s ->
    let d = Obs.Perfscope.finish s in
    Obs.Perfscope.throughput m_inject_rate ~items:!injected
      ~seconds:d.Obs.Perfscope.wall_s
  | None -> ());
  match result with
  | None -> Ok { prefixes = !checked; nodes = total }
  | Some f -> Error f

let check_cuts ~graph ~capacity ~strategy observer =
  check_masks ~graph ~capacity ~strategy (fun cut image ->
      observer ~cut:(cut ()) image)

let check ~graph ~capacity ~strategy observer =
  check_masks ~graph ~capacity ~strategy (fun _ image -> observer image)

(* 2^20 prefixes is the most an exhaustive walk should attempt; the
   [all_down_closed] hard ceiling is 24 nodes, but graphs that dense
   are already better sampled. *)
let auto ?(exhaustive_limit = 20) ~samples ~seed graph =
  if exhaustive_limit > 24 then
    invalid_arg "Recovery.auto: exhaustive_limit must be <= 24";
  if P.Persist_graph.node_count graph <= exhaustive_limit then Exhaustive
  else Sampled { samples; seed }
