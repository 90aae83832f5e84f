(* crash-lockfree: DPOR x failure injection over the NVTraverse CAS set
   (2 threads, Recovery.auto cuts), in the two halves `make lockfree`
   runs: the SC machine at depth 2 (many small graphs, exhaustive cuts)
   and tso-buffered at depth 1 (many executions, one graph).  A
   Buggy_traverse run must be caught, and its schedule must replay. *)

module C = Lockfree.Cas_set
module D = Check.Driver
module M = Memsim.Machine
module Ps = Persistency

let name = "crash-lockfree"
let work_name = "schedules_per_s"
let work_unit = "schedules/s"

(* Crash states sampled per graph above [exhaustive_limit] nodes, as in
   `persistsim lockfree --recovery`. *)
let samples = 64
let exhaustive_limit = 20

type half = {
  hname : string;  (** metric suffix: [sc] or [buffered] *)
  budget : int;  (** DPOR schedule budget *)
  instance : M.policy -> D.instance;
}

type state = {
  seed : int;
  halves : half list;
  buggy : M.policy -> D.instance;
}

let cfg = Ps.Config.make Ps.Config.Epoch

(* Which insert lands before which is what shapes the DPOR tree, and
   with it the cost of a round.  So the seed picks the key values but
   keeps the rank order of the keys `make lockfree` inserts (key seed
   1): seed 0 is that run, and every seed costs about the same. *)
let ranks keys =
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Array.map
    (fun k ->
      let rec find i = if sorted.(i) = k then i else find (i + 1) in
      find 0)
    keys

let key_seed p seed =
  let target = ranks (C.keys_for { p with C.seed = 1 }) in
  let rec find s =
    if ranks (C.keys_for { p with C.seed = s }) = target then s
    else find (s + 1)
  in
  find (1 + (1000 * seed))

let setup ~seed _ =
  let instance ~depth ~machine ~persistence discipline =
    let p =
      C.explore_params ~threads:2 ~depth ~machine ~persistence discipline
    in
    D.lockfree_instance { p with C.seed = key_seed p seed } cfg
  in
  { seed;
    halves =
      [ { hname = "sc"; budget = 64;
          instance =
            instance ~depth:2 ~machine:M.Sc ~persistence:M.Psync C.Nvtraverse };
        { hname = "buffered"; budget = 1_000;
          instance =
            instance ~depth:1 ~machine:M.Tso ~persistence:M.Pbuffered
              C.Nvtraverse } ];
    buggy =
      instance ~depth:2 ~machine:M.Sc ~persistence:M.Psync C.Buggy_traverse }

(* The strategy chooser, counting which kind of cut walk each checked
   graph got: the coverage record says whether cuts were sampled. *)
let counting_strategy st =
  let exhaustive = ref 0 and sampled = ref 0 in
  let strategy g =
    let s = Recovery.auto ~exhaustive_limit ~samples ~seed:st.seed g in
    (match s with
    | Recovery.Exhaustive -> incr exhaustive
    | Recovery.Sampled _ -> incr sampled);
    s
  in
  (strategy, exhaustive, sampled)

type result = {
  stats : Check.Dpor.stats;
  distinct : int;
  checked : int;
  prefixes : int;
  violation : bool;
  exhaustive : int;
  sampled : int;
}

let half_outputs h r =
  let k s = h.hname ^ "." ^ s in
  let i = string_of_int in
  let s = r.stats in
  [ (k "schedules", i s.Check.Dpor.schedules);
    (k "steps", i s.Check.Dpor.steps);
    (k "sleep_skips", i s.Check.Dpor.sleep_skips);
    (k "sleep_aborts", i s.Check.Dpor.sleep_aborts);
    (k "complete", string_of_bool s.Check.Dpor.complete);
    (k "distinct_graphs", i r.distinct);
    (k "checked", i r.checked);
    (k "prefixes", i r.prefixes);
    (k "verdict", if r.violation then "violation" else "ok");
    (k "cuts_exhaustive", i r.exhaustive);
    (k "cuts_sampled", i r.sampled) ]

let outcome results =
  { Workload.outputs =
      List.concat_map (fun (h, r) -> half_outputs h r) results;
    work =
      float_of_int
        (List.fold_left (fun n (_, r) -> n + r.stats.Check.Dpor.schedules) 0
           results) }

let round st =
  outcome
    (List.map
       (fun h ->
         let strategy, exhaustive, sampled = counting_strategy st in
         let r = D.check ~max_schedules:h.budget ~strategy h.instance in
         ( h,
           { stats = r.D.stats; distinct = r.D.distinct; checked = r.D.checked;
             prefixes = r.D.prefixes; violation = r.D.failure <> None;
             exhaustive = !exhaustive; sampled = !sampled } ))
       st.halves)

(* [D.check] rebuilt from the same public calls — [Dpor.explore] with an
   [on_exec] that fingerprints the graph and failure-injects each
   distinct one — with timers around the instance closure, the
   fingerprint, [Recovery.check_cuts] and the observer. *)
let traced_half st lr h =
  let m s = s ^ "." ^ h.hname in
  let timed metric f = Layers.timed lr (m metric) f in
  let strategy, exhaustive, sampled = counting_strategy st in
  let seen = Hashtbl.create 64 in
  let checked = ref 0 and prefixes = ref 0 and violation = ref false in
  let draws = ref 0 and dups = ref 0 in
  let run policy =
    Layers.add lr (m "machine.executions") 1.;
    timed "machine.exec_s" (fun () -> h.instance policy)
  in
  let on_exec _ (inst : D.instance) =
    let fp =
      timed "exploration.fingerprint_s" (fun () ->
          Ps.Graph_export.fingerprint inst.D.graph)
    in
    if Hashtbl.mem seen fp then Check.Dpor.Continue
    else begin
      Hashtbl.add seen fp ();
      let strategy = strategy inst.D.graph in
      let observer ~cut image =
        timed "recovery.observer_s" (fun () -> inst.D.observer ~cut image)
      in
      let verdict =
        Layers.span ~metric:(m "recovery.busy_s") lr "recovery.check_cuts"
          (fun () ->
            Recovery.check_cuts ~graph:inst.D.graph ~capacity:inst.D.capacity
              ~strategy observer)
      in
      incr checked;
      match verdict with
      | Ok r ->
        prefixes := !prefixes + r.Recovery.prefixes;
        (match strategy with
        | Recovery.Sampled { samples; _ } ->
          draws := !draws + samples;
          dups := !dups + samples - r.Recovery.prefixes
        | Recovery.Exhaustive -> draws := !draws + r.Recovery.prefixes);
        Check.Dpor.Continue
      | Error f ->
        prefixes := !prefixes + f.Recovery.prefixes_ok + 1;
        violation := true;
        Check.Dpor.Stop
    end
  in
  let stats =
    Layers.span ~metric:(m "exploration.wall_s") lr ("explore." ^ h.hname)
      (fun () -> Check.Dpor.explore ~max_schedules:h.budget ~on_exec run)
  in
  let r =
    { stats; distinct = Hashtbl.length seen; checked = !checked;
      prefixes = !prefixes; violation = !violation; exhaustive = !exhaustive;
      sampled = !sampled }
  in
  let g s = Layers.get lr (m s) in
  let set s v = Layers.set lr (m s) v in
  let f = float_of_int in
  set "recovery.checks" (f r.checked);
  set "recovery.prefixes" (f r.prefixes);
  set "recovery.draws" (f !draws);
  set "recovery.dups" (f !dups);
  set "exploration.schedules" (f stats.Check.Dpor.schedules);
  set "exploration.steps" (f stats.Check.Dpor.steps);
  set "exploration.sleep_skips" (f stats.Check.Dpor.sleep_skips);
  set "exploration.sleep_aborts" (f stats.Check.Dpor.sleep_aborts);
  set "exploration.complete" (if stats.Check.Dpor.complete then 1. else 0.);
  set "exploration.distinct_graphs" (f r.distinct);
  set "exploration.self_s"
    (g "exploration.wall_s" -. g "machine.exec_s" -. g "recovery.busy_s"
    -. g "exploration.fingerprint_s");
  (h, r)

(* The per-half metrics, their sums without a suffix, and the ratios of
   both. *)
let summed =
  [ "machine.executions"; "machine.exec_s"; "recovery.busy_s";
    "recovery.observer_s"; "recovery.checks"; "recovery.prefixes";
    "recovery.draws"; "recovery.dups"; "exploration.schedules";
    "exploration.steps"; "exploration.sleep_skips";
    "exploration.sleep_aborts"; "exploration.distinct_graphs";
    "exploration.fingerprint_s"; "exploration.self_s"; "exploration.wall_s" ]

let derive lr sfx =
  let g s = Layers.get lr (s ^ sfx) in
  let set s v = Layers.set lr (s ^ sfx) v in
  set "recovery.self_s" (g "recovery.busy_s" -. g "recovery.observer_s");
  set "recovery.prefixes_per_s"
    (Layers.ratio (g "recovery.prefixes") (g "recovery.busy_s"));
  set "recovery.dup_ratio"
    (Layers.ratio (g "recovery.dups") (g "recovery.draws"));
  set "exploration.useful_ratio"
    (Layers.ratio (g "exploration.distinct_graphs") (g "exploration.schedules"))

let traced_round st lr =
  let results = List.map (traced_half st lr) st.halves in
  List.iter
    (fun s ->
      List.iter
        (fun h -> Layers.add lr s (Layers.get lr (s ^ "." ^ h.hname)))
        st.halves)
    summed;
  let complete (_, r) = r.stats.Check.Dpor.complete in
  Layers.set lr "exploration.complete"
    (if List.for_all complete results then 1. else 0.);
  derive lr "";
  List.iter (fun h -> derive lr ("." ^ h.hname)) st.halves;
  Layers.set lr "attributed_s" (Layers.get lr "exploration.wall_s");
  outcome results

(* The buggy traversal must be caught, and the counter-example schedule
   must reproduce the violation through [check_schedule]. *)
let final_check st =
  let strategy = Recovery.auto ~exhaustive_limit ~samples ~seed:st.seed in
  let max_schedules = (List.hd st.halves).budget in
  let r = D.check ~max_schedules ~strategy st.buggy in
  match r.D.failure with
  | None -> [ ("buggy.caught", "false") ]
  | Some (sched, _) ->
    let replayed =
      match D.check_schedule ~strategy sched st.buggy with
      | Ok _ -> "false"
      | Error _ -> "true"
    in
    [ ("buggy.caught", "true");
      ("buggy.schedules", string_of_int r.D.stats.Check.Dpor.schedules);
      ("buggy.schedule", Check.Schedule.to_string sched);
      ("buggy.replay_caught", replayed) ]
