module M = Memsim.Machine
module Vec = Memsim.Vec
module Iset = Persistency.Iset
module Om = Obs.Metrics
module Ot = Obs.Tracer

let m_schedules = Om.counter Om.default "check.schedules"
let m_steps = Om.counter Om.default "check.steps"
let m_sleep_skips = Om.counter Om.default "check.sleep_skips"
let m_sleep_aborts = Om.counter Om.default "check.sleep_aborts"

type stats = {
  schedules : int;
  sleep_skips : int;
  sleep_aborts : int;
  steps : int;
  complete : bool;
}

type decision =
  | Continue
  | Stop

(* The current run only replays an already-explored trace class: abort
   it.  Raised from the guide's [choose]; the machine run unwinds and
   the abandoned continuations are reclaimed by the GC. *)
exception Prune

(* Two accesses conflict when their byte ranges overlap at the tracking
   granularity and at least one writes.  Granularity matters: the
   persistency engine detects conflicts per tracked block, so treating
   block-mates as independent would under-approximate the persist
   graphs reachable from a trace class.  Every explored workload runs
   under the engine's default tracking granularity. *)
let gran = Persistency.Config.default_track_gran

let conflict (a : M.access) (b : M.access) =
  (a.write || b.write)
  && a.addr / gran <= (b.addr + b.size - 1) / gran
  && b.addr / gran <= (a.addr + a.size - 1) / gran

let rec conflicts_with a = function
  | [] -> false
  | b :: bs -> conflict a b || conflicts_with a bs

let conflicts_step (next : M.access option) accs =
  match next with
  | None -> false  (* no shared footprint: independent of everything *)
  | Some a -> conflicts_with a accs

(* Whether some access of [accs] conflicts with some access of [bs]. *)
let rec conflicts_any accs bs =
  match accs with
  | [] -> false
  | a :: rest -> conflicts_with a bs || conflicts_any rest bs

(* One scheduling decision of the current (or a previous) execution. *)
type point = {
  enabled : M.step_info array;  (* sorted by tid; stable across replays *)
  mutable chosen : int;  (* tid executed from here *)
  mutable chosen_index : int;  (* its bag index — the Scripted choice *)
  mutable accesses : M.access list;  (* dynamic footprint of the step *)
  mutable sleep_in : Iset.t;  (* sleep set on arrival, latest run *)
  mutable explored : Iset.t;  (* tids whose subtrees are done here *)
  mutable backtrack : Iset.t;  (* tids scheduled for exploration here *)
}

type explorer = {
  stack : point Vec.t;
  mutable depth : int;  (* decisions taken in the current run *)
  mutable prefix_len : int;  (* points [0, prefix_len) replay [chosen] *)
  mutable race_from : int;  (* first point needing race detection *)
  mutable sleep : Iset.t;  (* sleep set at the current frontier *)
  mutable schedules : int;
  mutable sleep_skips : int;
  mutable sleep_aborts : int;
  mutable steps : int;
}

(* The next step of [tid] at [pt]: [Some next] when it is enabled
   there, [None] when it is not. *)
let next_of pt tid =
  let en = pt.enabled in
  let rec find i =
    if i < 0 then None
    else if en.(i).M.tid = tid then Some en.(i).M.next
    else find (i - 1)
  in
  find (Array.length en - 1)

let enabled_tid pt tid =
  Array.exists (fun (s : M.step_info) -> s.tid = tid) pt.enabled

let nondet () =
  failwith
    "Check.Dpor: workload is not deterministic under replay (enabled sets \
     changed between executions of the same prefix)"

let choose e (infos : M.step_info array) =
  let k = e.depth in
  if k < e.prefix_len then begin
    (* replay the stored decision *)
    let pt = Vec.get e.stack k in
    let en = pt.enabled in
    let n = Array.length infos in
    if n <> Array.length en then nondet ();
    let index = ref (-1) in
    for i = 0 to n - 1 do
      let tid = infos.(i).M.tid in
      if tid <> en.(i).M.tid then nondet ();
      if tid = pt.chosen && !index < 0 then index := infos.(i).M.index
    done;
    if !index < 0 then nondet ();
    pt.sleep_in <- e.sleep;
    pt.chosen_index <- !index;
    pt.chosen
  end
  else begin
    (* fresh decision: default to the lowest-tid awake thread *)
    match
      Array.find_opt (fun (s : M.step_info) -> not (Iset.mem s.tid e.sleep))
        infos
    with
    | None -> raise Prune
    | Some s ->
      Vec.push e.stack
        { enabled = infos;
          chosen = s.tid;
          chosen_index = s.index;
          accesses = [];
          sleep_in = e.sleep;
          explored = Iset.empty;
          backtrack = Iset.empty };
      s.tid
  end

(* A thread and its store-buffer drain agent are the same logical
   thread: their steps are ordered by program/drain order, so a
   conflict between them is not a reversible race.  Treating it as one
   would both waste backtracks and — worse — mask a real race with an
   earlier step of a genuinely concurrent thread, since the scan below
   stops at the latest conflicting step.  (Persistence-buffer drain
   pseudo-threads are genuinely concurrent with everything and are
   deliberately not excluded.) *)
let same_logical_thread p q =
  p = q
  || (M.is_drain_tid p && M.drain_parent p = q)
  || (M.is_drain_tid q && M.drain_parent q = p)

(* Conflict-directed backtracking: the executed step [k] races with the
   latest earlier step by another thread whose dynamic footprint
   conflicts with it.  Reversing that race requires running this thread
   (or, if it was not enabled there — blocked on a lock — every enabled
   thread) from that point. *)
let race_detect e k tid accs =
  if accs <> [] then begin
    let i = ref (k - 1) in
    let found = ref false in
    while (not !found) && !i >= 0 do
      let pi = Vec.get e.stack !i in
      if
        (not (same_logical_thread pi.chosen tid))
        && conflicts_any accs pi.accesses
      then found := true
      else decr i
    done;
    if !found then begin
      let pi = Vec.get e.stack !i in
      let add q =
        if q <> pi.chosen && not (Iset.mem q pi.explored) then
          pi.backtrack <- Iset.add q pi.backtrack
      in
      if enabled_tid pi tid then add tid
      else Array.iter (fun (s : M.step_info) -> add s.tid) pi.enabled
    end
  end

let on_step e tid accs =
  let k = e.depth in
  let pt = Vec.get e.stack k in
  pt.accesses <- accs;
  e.steps <- e.steps + 1;
  if k >= e.race_from then race_detect e k tid accs;
  (* sleep propagation: threads already covered stay asleep while their
     next step is independent of what just executed *)
  let eff = Iset.union pt.sleep_in pt.explored in
  e.sleep <-
    (if Iset.is_empty eff then eff
     else
       Iset.filter
         (fun q ->
           q <> tid
           &&
           match next_of pt q with
           | Some next -> not (conflicts_step next accs)
           | None -> false (* vanished from the enabled set: wake it *))
         eff);
  e.depth <- k + 1

(* Advance to the next leaf in depth-first order: pop exhausted points,
   re-aim the deepest one with an unexplored, awake backtrack
   candidate.  false when the whole tree is done. *)
let rec unwind e =
  let n = Vec.length e.stack in
  if n = 0 then false
  else begin
    let k = n - 1 in
    let pt = Vec.get e.stack k in
    pt.explored <- Iset.add pt.chosen pt.explored;
    let rec pick () =
      match Iset.min_elt_opt (Iset.diff pt.backtrack pt.explored) with
      | None -> None
      | Some q when Iset.mem q pt.sleep_in ->
        e.sleep_skips <- e.sleep_skips + 1;
        Om.incr m_sleep_skips;
        pt.explored <- Iset.add q pt.explored;
        pick ()
      | Some q -> Some q
    in
    match pick () with
    | Some q ->
      pt.chosen <- q;
      e.prefix_len <- k + 1;
      e.race_from <- k;
      true
    | None ->
      ignore (Vec.pop e.stack);
      unwind e
  end

let schedule_of_stack e =
  let n = Vec.length e.stack in
  let tids = Array.make n 0 and indices = Array.make n 0 in
  for i = 0 to n - 1 do
    let pt = Vec.get e.stack i in
    tids.(i) <- pt.chosen;
    indices.(i) <- pt.chosen_index
  done;
  { Schedule.tids; indices }

let ticket_of_budget max_schedules =
  match max_schedules with
  | None -> fun () -> true
  | Some n ->
    let left = ref n in
    fun () ->
      if !left > 0 then begin
        decr left;
        true
      end
      else false

let explore ?max_schedules ~on_exec run_fn =
  Ot.with_span ~cat:"check" "check.explore" @@ fun () ->
  let ticket = ticket_of_budget max_schedules in
  let e =
    { stack = Vec.create ();
      depth = 0;
      prefix_len = 0;
      race_from = 0;
      sleep = Iset.empty;
      schedules = 0;
      sleep_skips = 0;
      sleep_aborts = 0;
      steps = 0 }
  in
  let guide =
    { M.choose = (fun infos -> choose e infos);
      on_step = (fun tid accs -> on_step e tid accs) }
  in
  let halted = ref false in
  let rec loop () =
    if not (ticket ()) then halted := true
    else begin
      e.depth <- 0;
      e.sleep <- Iset.empty;
      (match run_fn (M.Guided guide) with
      | v ->
        e.schedules <- e.schedules + 1;
        Om.incr m_schedules;
        (match on_exec (schedule_of_stack e) v with
        | Stop -> halted := true
        | Continue -> ())
      | exception Prune ->
        e.sleep_aborts <- e.sleep_aborts + 1;
        Om.incr m_sleep_aborts);
      if (not !halted) && unwind e then loop ()
    end
  in
  loop ();
  Om.add m_steps e.steps;
  { schedules = e.schedules;
    sleep_skips = e.sleep_skips;
    sleep_aborts = e.sleep_aborts;
    steps = e.steps;
    complete = not !halted }
