(* Tests for lib/check — the DPOR explorer and the cross-interleaving
   recovery driver.

   Soundness is checked against the exact equivalence-class invariant:
   two interleavings are Mazurkiewicz-equivalent iff they orient every
   pair of conflicting events the same way (events named by (tid,
   per-thread index), conflict = overlapping tracked blocks with at
   least one write).  On hand-written racy/locked/multi-writer programs
   the explorer must cover exactly the classes the brute-force
   [Memsim.Explore.run_all] oracle covers.

   On the real workloads the checked invariant is the one the driver
   relies on: trace-equivalent runs produce fingerprint-equal persist
   graphs, so fingerprint sets and per-fingerprint recovery verdicts
   must match brute force — with strictly fewer executed schedules
   (exact counts pinned below for depth 2; the depth-3 census, 423,556
   brute-force traces, runs as [make census] from test/census). *)

module M = Memsim.Machine
module E = Memsim.Event
module D = Check.Dpor
module S = Check.Schedule
module Dr = Check.Driver
module Ps = Persistency
module Q = Workloads.Queue

open Equivalence

(* ------------------------------------------------------------------ *)
(* Schedule round-trip *)

let test_schedule_roundtrip () =
  let s = { S.tids = [| 0; 1; 1; 0 |]; indices = [| 0; 1; 0; 0 |] } in
  Alcotest.(check string) "to_string" "0,1,0,0" (S.to_string s);
  let s' = S.of_string "0,1,0,0" in
  Alcotest.(check (list int)) "forced" [ 0; 1; 0; 0 ] (S.forced s');
  Alcotest.(check int) "length" 4 (S.length s');
  Alcotest.(check string) "round-trip" (S.to_string s) (S.to_string s');
  Alcotest.(check int) "empty" 0 (S.length (S.of_string ""));
  Alcotest.(check string) "empty round-trip" ""
    (S.to_string (S.of_string ""));
  let rejects str =
    match S.of_string str with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "of_string %S should have raised" str
  in
  rejects "1,x";
  rejects "0,-2";
  rejects ","

(* ------------------------------------------------------------------ *)
(* Hand-written programs: schedule counts and exact class coverage *)

(* Exact trace-class key: the orientation of every conflicting event
   pair.  Equal keys <=> same Mazurkiewicz class, so comparing key sets
   between DPOR and brute force is a sound coverage check (distinct
   event *traces* would not be: independent events commute). *)
let class_key trace =
  let seq = Hashtbl.create 8 in
  let evs =
    List.filter_map
      (fun ev ->
        match ev with
        | E.Access (k, a) ->
          let t = a.E.tid in
          let n = try Hashtbl.find seq t with Not_found -> 0 in
          Hashtbl.replace seq t (n + 1);
          Some (t, n, k <> E.Load, a.E.addr, a.E.size)
        | _ -> None)
      (Memsim.Trace.to_list trace)
  in
  let arr = Array.of_list evs in
  let pairs = ref [] in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      let t1, n1, w1, a1, s1 = arr.(i) and t2, n2, w2, a2, s2 = arr.(j) in
      if
        t1 <> t2
        && (w1 || w2)
        && a1 / 8 <= (a2 + s2 - 1) / 8
        && a2 / 8 <= (a1 + s1 - 1) / 8
      then pairs := Printf.sprintf "%d.%d<%d.%d" t1 n1 t2 n2 :: !pairs
    done
  done;
  String.concat ";" (List.sort compare !pairs)

(* Run [body machine memory] under [policy] and return the class key. *)
let traced_run body policy =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  body machine memory;
  M.run machine;
  class_key trace

(* Two threads over fully disjoint addresses: one trace class. *)
let disjoint machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           M.store (a + (32 * t)) 1L;
           M.store (a + (32 * t) + 8) 2L))
  done

(* Two threads, two stores each, all to one word: every cross-thread
   pair conflicts, so classes = interleavings of 4 events = C(4,2). *)
let hot machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           M.store a (Int64.of_int (2 * t));
           M.store a (Int64.of_int ((2 * t) + 1))))
  done

(* Private stores around a shared-word race plus a read-write race. *)
let racy machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           M.store (a + (8 * (2 + t))) 1L;
           M.store a (Int64.of_int t);
           ignore (M.load (a + 8));
           M.store (a + 8) (Int64.of_int (10 + t))))
  done

(* Lock-protected increment between private stores: the lock word is
   itself a conflict source (acquire/release are RMWs). *)
let mixed machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  let l = M.mutex machine in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           M.store (a + (8 * (t + 2))) 7L;
           M.lock l;
           let v = M.load a in
           M.store a (Int64.add v 1L);
           M.unlock l;
           M.store (a + (8 * (t + 4))) 9L))
  done

(* Three threads: a private store then a shared-word store each. *)
let three machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  for t = 0 to 2 do
    ignore
      (M.spawn machine (fun () ->
           M.store (a + (8 * t)) 1L;
           M.store a (Int64.of_int t)))
  done

let dpor_classes body =
  let classes = Hashtbl.create 64 in
  let stats =
    D.explore
      ~on_exec:(fun _ key ->
        Hashtbl.replace classes key ();
        D.Continue)
      (traced_run body)
  in
  (stats, classes)

let brute_classes ?(limit = 100_000) body =
  let classes = Hashtbl.create 64 in
  let o =
    Memsim.Explore.run_all ~limit (fun policy ->
        Hashtbl.replace classes (traced_run body policy) ())
  in
  (o, classes)

let check_coverage name body =
  let stats, dpor = dpor_classes body in
  let o, brute = brute_classes body in
  Alcotest.(check bool) (name ^ ": dpor complete") true stats.D.complete;
  Alcotest.(check bool) (name ^ ": brute complete") true o.Memsim.Explore.complete;
  Alcotest.(check (list string))
    (name ^ ": same class set")
    (sorted_keys brute) (sorted_keys dpor);
  Alcotest.(check bool)
    (name ^ ": fewer schedules than brute traces")
    true
    (stats.D.schedules < o.Memsim.Explore.traces);
  (stats, Hashtbl.length dpor, o)

let test_disjoint_single_schedule () =
  let stats, classes, o = check_coverage "disjoint" disjoint in
  Alcotest.(check int) "one class" 1 classes;
  Alcotest.(check int) "one schedule" 1 stats.D.schedules;
  Alcotest.(check bool) "brute needs more" true (o.Memsim.Explore.traces > 1)

let test_hot_counts () =
  let stats, classes, _ = check_coverage "hot" hot in
  (* C(4,2) orderings of two conflicting 2-store threads *)
  Alcotest.(check int) "six classes" 6 classes;
  Alcotest.(check int) "per-class optimal" 6 stats.D.schedules

let test_racy_coverage () =
  let stats, classes, _ = check_coverage "racy" racy in
  Alcotest.(check int) "per-class optimal" classes stats.D.schedules

let test_mixed_coverage () =
  (* Lock-step grant resumptions make some redundant runs unavoidable;
     coverage (checked above) is the requirement, optimality is not. *)
  ignore (check_coverage "mixed-lock" mixed)

let test_three_coverage () =
  let stats, classes, _ = check_coverage "three-writers" three in
  Alcotest.(check int) "per-class optimal" classes stats.D.schedules

(* ------------------------------------------------------------------ *)
(* Workload equivalence: fingerprints + recovery verdicts vs brute
   ({!Equivalence}; the depth-3 census runs as [make census]) *)

let kv_run discipline mode =
  let params =
    Dr.kv.params ~threads:2 ~depth:2 ~seed:1 M.sc_config discipline
  in
  Dr.instance Dr.kv params (Ps.Config.make mode)

let test_queue_equivalence_depth2 () =
  let stats, o, dpor =
    check_equivalence "cwl/epoch d2" ~limit:100_000
      (queue_run Q.Epoch Ps.Config.Epoch)
  in
  Alcotest.(check int) "distinct graphs" 6 (Hashtbl.length dpor);
  Alcotest.(check int) "dpor schedules" 28 stats.D.schedules;
  Alcotest.(check int) "brute traces" 5_918 o.Memsim.Explore.traces

let test_queue_equivalence_buggy () =
  let _, _, dpor =
    check_equivalence "cwl/buggy d2" ~limit:100_000
      (queue_run Q.Buggy_epoch Ps.Config.Epoch)
  in
  let unsafe = List.filter (fun (_, v) -> v = "unsafe") (verdict_map dpor) in
  Alcotest.(check bool) "some graph is unsafe" true (unsafe <> [])

(* ------------------------------------------------------------------ *)
(* Adversarial KV sweep *)

(* [run] must be caught within 512 schedules on a non-empty schedule
   that survives its string form and replays to the same crash state
   and diagnosis. *)
let caught_and_replayed ~what run =
  match (Dr.check ~max_schedules:512 ~strategy run).Dr.failure with
  | None -> Alcotest.failf "%s not caught within 512 schedules" what
  | Some (sched, f) -> (
    let what = what ^ ": " in
    Alcotest.(check bool) (what ^ "non-empty schedule") true
      (S.length sched > 0);
    let persisted = S.of_string (S.to_string sched) in
    Alcotest.(check string) (what ^ "schedule round-trip")
      (S.to_string sched) (S.to_string persisted);
    match Dr.check_schedule ~strategy persisted run with
    | Ok _ -> Alcotest.failf "%sreplayed counter-example is clean" what
    | Error f' ->
      Alcotest.(check int) (what ^ "durable persists") f.Recovery.durable
        f'.Recovery.durable;
      Alcotest.(check int) (what ^ "total persists") f.Recovery.total
        f'.Recovery.total;
      Alcotest.(check string) (what ^ "diagnosis") f.Recovery.message
        f'.Recovery.message)

let test_kv_buggy_flagged () =
  caught_and_replayed ~what:"kv/buggy-undo"
    (kv_run Kv.Buggy_undo Ps.Config.Epoch)

let test_kv_correct_disciplines () =
  List.iter
    (fun (d, mode) ->
      let name = Kv.discipline_name d in
      let report = Dr.check ~strategy (kv_run d mode) in
      Alcotest.(check bool) (name ^ ": complete") true report.Dr.stats.D.complete;
      Alcotest.(check bool) (name ^ ": safe") true (report.Dr.failure = None);
      Alcotest.(check bool)
        (name ^ ": graphs checked")
        true (report.Dr.checked >= 1);
      Alcotest.(check bool)
        (name ^ ": prefixes walked")
        true
        (report.Dr.prefixes > report.Dr.checked))
    [ (Kv.Strict_stores, Ps.Config.Strict);
      (Kv.Epoch_undo, Ps.Config.Epoch);
      (Kv.Strand_ops, Ps.Config.Strand) ]

(* ------------------------------------------------------------------ *)
(* Every workload family through one path *)

(* Each of [Driver.families] on sc with 2 threads, at the epoch model
   point: the clean variant survives a complete depth-1 exploration,
   and the canonical drop at depth 2 is caught on a schedule that
   survives its string form and replays to the same crash state and
   diagnosis. *)
let test_families () =
  List.iter
    (fun (Dr.Family f) ->
      let what = f.name ^ "/" in
      let run variant depth =
        Dr.instance f
          (f.params ~threads:2 ~depth ~seed:1 M.sc_config variant)
          (Ps.Config.make Ps.Config.Epoch)
      in
      let clean =
        Dr.check ~strategy (run (f.clean Ps.Config.Epoch Q.Epoch) 1)
      in
      Alcotest.(check bool) (what ^ "clean: complete") true
        clean.Dr.stats.D.complete;
      Alcotest.(check bool) (what ^ "clean: safe") true
        (clean.Dr.failure = None);
      caught_and_replayed ~what:(what ^ f.variant_name f.drop) (run f.drop 2))
    Dr.families

(* ------------------------------------------------------------------ *)
(* TSO counter-example capture and deterministic replay *)

(* Store buffering on a TSO machine, the canonical weak behavior: DPOR
   must find a schedule where both loads miss both stores (impossible
   under SC), the captured [Schedule.t] must name a drain pseudo-thread
   explicitly, and replaying it — scripted, from the string form — must
   reproduce the outcome exactly. *)
let sb_tso policy =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy ~model:M.Tso ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let x = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let y = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let r = [| 42L; 42L |] in
  ignore
    (M.spawn machine (fun () ->
         M.store x 1L;
         r.(0) <- M.load y));
  ignore
    (M.spawn machine (fun () ->
         M.store y 1L;
         r.(1) <- M.load x));
  M.run machine;
  let key =
    String.concat ";"
      (List.map E.to_string (Memsim.Trace.to_list trace))
  in
  (key, r.(0), r.(1))

let test_tso_counterexample_replay () =
  let found = ref None in
  let stats =
    D.explore
      ~on_exec:(fun sched (key, r0, r1) ->
        if r0 = 0L && r1 = 0L then begin
          found := Some (sched, key);
          D.Stop
        end
        else D.Continue)
      sb_tso
  in
  match !found with
  | None ->
    Alcotest.failf "weak SB outcome not found in %d schedules"
      stats.D.schedules
  | Some (sched, key) ->
    Alcotest.(check bool)
      "schedule names a drain pseudo-thread" true
      (Array.exists M.is_drain_tid sched.S.tids);
    (* replay through the script interface, and through the persisted
       string form, several times: bit-identical trace and registers *)
    let replay policy =
      let key', r0, r1 = sb_tso policy in
      Alcotest.(check string) "replayed trace" key key';
      Alcotest.(check bool) "replayed registers" true (r0 = 0L && r1 = 0L)
    in
    replay (M.Scripted (S.to_script sched));
    replay (M.Scripted (S.to_script (S.of_string (S.to_string sched))));
    replay (M.Scripted (S.to_script sched))

(* ------------------------------------------------------------------ *)
(* Buffered-persistency counter-example capture and deterministic
   replay *)

(* The cross-thread buffered-only weak behavior as a raw machine
   program: t0 flushes x and fences before publishing z; t1 sees z=1
   and persists y.  Under synchronous Px86 x is durable before z is
   even visible, so y can never be durable without x.  Under the
   buffered machine the drain of x's captured line is a scheduler
   decision, so DPOR must find a schedule where x's Pdrain lands only
   after y's store has entered the global order even though the reader
   observed the fence-ordered publish — exactly then y's persist node
   carries no order edge to x and a crash can leave y durable with x
   lost.  (Relative order of the two Pdrains themselves is not the
   criterion: drains commute, so DPOR deliberately prunes those
   permutations.)  The schedule must name a persist pseudo-thread,
   survive the string round-trip, and replay bit-identically. *)
let flush_async_buffered policy =
  let memory = Memsim.Memory.create () in
  let machine =
    M.create ~policy ~model:M.Tso ~persistence:M.Pbuffered ~memory ()
  in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let x = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let y = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let z = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let r = [| 42L |] in
  ignore
    (M.spawn machine (fun () ->
         M.store x 1L;
         M.clflushopt x;
         M.sfence ();
         M.store z 1L));
  ignore
    (M.spawn machine (fun () ->
         r.(0) <- M.load z;
         M.store y 1L;
         M.clflushopt y;
         M.sfence ()));
  M.run machine;
  let events = Memsim.Trace.to_list trace in
  let key = String.concat ";" (List.map E.to_string events) in
  let drain_pos addr =
    let rec find i = function
      | [] -> max_int
      | E.Pdrain { addr = a; _ } :: _ when a = addr -> i
      | _ :: tl -> find (i + 1) tl
    in
    find 0 events
  in
  let store_pos addr =
    let rec find i = function
      | [] -> max_int
      | E.Access (E.Store, a) :: _ when a.E.addr = addr -> i
      | _ :: tl -> find (i + 1) tl
    in
    find 0 events
  in
  (key, r.(0), drain_pos x, store_pos y)

let test_buffered_counterexample_replay () =
  let found = ref None in
  let stats =
    D.explore
      ~on_exec:(fun sched (key, r0, dx, sy) ->
        if r0 = 1L && sy < dx then begin
          found := Some (sched, key);
          D.Stop
        end
        else D.Continue)
      flush_async_buffered
  in
  match !found with
  | None ->
    Alcotest.failf "buffered-only weak outcome not found in %d schedules"
      stats.D.schedules
  | Some (sched, key) ->
    Alcotest.(check bool)
      "schedule names a persist pseudo-thread" true
      (Array.exists M.is_persist_tid sched.S.tids);
    let replay policy =
      let key', r0, dx, sy = flush_async_buffered policy in
      Alcotest.(check string) "replayed trace" key key';
      Alcotest.(check bool)
        "replayed weak outcome" true
        (r0 = 1L && sy < dx)
    in
    replay (M.Scripted (S.to_script sched));
    replay (M.Scripted (S.to_script (S.of_string (S.to_string sched))));
    replay (M.Scripted (S.to_script sched))

(* ------------------------------------------------------------------ *)
(* What the guide sees, pinned *)

(* A digest of every choice set DPOR's guide receives — each step's
   tid, its [Scripted] index and its static footprint — plus the
   search's stats, for three explorations: the NVTraverse set under
   tso-buffered (persistence-buffer drains in the choice set) and
   under SC, and one litmus shape under tso-buffered.  The machine may
   build the choice set any way it likes; these bytes must not move. *)
let guide_digest ?max_schedules run =
  let buf = Buffer.create 4096 in
  let record (infos : M.step_info array) =
    Array.iter
      (fun (s : M.step_info) ->
        Buffer.add_string buf
          (match s.next with
          | None -> Printf.sprintf "%d@%d;" s.tid s.index
          | Some a ->
            Printf.sprintf "%d@%d:%d+%d%c;" s.tid s.index a.addr a.size
              (if a.write then 'w' else 'r')))
      infos;
    Buffer.add_char buf '\n'
  in
  let spy = function
    | M.Guided g ->
      M.Guided
        { g with
          M.choose =
            (fun infos ->
              record infos;
              g.M.choose infos) }
    | p -> p
  in
  let st =
    D.explore ?max_schedules
      ~on_exec:(fun _ () -> D.Continue)
      (fun policy -> run (spy policy))
  in
  ( Printf.sprintf "schedules=%d steps=%d sleep_skips=%d sleep_aborts=%d \
                    complete=%b"
      st.D.schedules st.D.steps st.D.sleep_skips st.D.sleep_aborts
      st.D.complete,
    Digest.to_hex (Digest.string (Buffer.contents buf)) )

let test_guide_choice_sets_pinned () =
  let set ~depth ~machine ~persistence policy =
    let p =
      Lockfree.Cas_set.explore_params ~threads:2 ~depth ~machine ~persistence
        Lockfree.Cas_set.Nvtraverse
    in
    ignore
      (Lockfree.Cas_set.run { p with Lockfree.Cas_set.policy } ~sink:ignore)
  in
  let pin name expected got =
    Alcotest.(check (pair string string)) name expected got
  in
  pin "nvtraverse set, tso-buffered, depth 1, budget 1000"
    ( "schedules=1000 steps=44000 sleep_skips=1009 sleep_aborts=0 \
       complete=false",
      "29f3c065339b35c4076f460edef6876a" )
    (guide_digest ~max_schedules:1000
       (set ~depth:1 ~machine:M.Tso ~persistence:M.Pbuffered));
  pin "nvtraverse set, sc, depth 2, budget 64"
    ( "schedules=64 steps=3787 sleep_skips=52 sleep_aborts=0 \
       complete=false",
      "f1cc5a130345d01f929adaacb42b98fd" )
    (guide_digest ~max_schedules:64
       (set ~depth:2 ~machine:M.Sc ~persistence:M.Psync));
  let litmus =
    match Litmus.find "cross-thread-flush-async" with
    | Some t -> t
    | None -> Alcotest.fail "litmus shape missing"
  in
  pin "litmus cross-thread-flush-async, tso-buffered"
    ( "schedules=7 steps=67 sleep_skips=3 sleep_aborts=1 complete=true",
      "95097e0ffdc89cdd192ae3b01cb8192e" )
    (guide_digest (fun policy ->
         ignore
           (Litmus.run_one ~config:M.tso_buffered_config litmus policy)))

(* ------------------------------------------------------------------ *)
(* Annotations as site sets of one SC run *)

(* The run of the fully annotated program, without the barrier and
   new-strand events of sites outside [on]. *)
let keep_sites on =
  let names = List.map M.site_name on in
  List.filter (function
    | E.Persist_barrier { site; _ } | E.New_strand { site; _ } ->
      List.mem site names
    | _ -> true)

let trace_of run sites policy =
  let trace = Memsim.Trace.create () in
  run sites policy ~sink:(Memsim.Trace.sink trace);
  Memsim.Trace.to_list trace

let fingerprint mode events =
  let e = Ps.Engine.create (Ps.Config.make ~record_graph:true mode) in
  List.iter (Ps.Engine.observe e) events;
  Ps.Graph_export.fingerprint (Option.get (Ps.Engine.graph e))

(* Each variant's own run under [policy ()] equals the fully annotated
   run under the same schedule less the other sites' events: the same
   event stream and the same persist graph under the variant's model. *)
let check_shared ?(fingerprints = true) name run variants policy =
  let all = List.concat_map (fun (_, sites, _) -> sites) variants in
  let full = trace_of run all (policy ()) in
  List.iter
    (fun (vname, sites, mode) ->
      let own = trace_of run sites (policy ()) in
      let shared = keep_sites sites full in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: event stream" name vname)
        true
        (List.equal E.equal own shared);
      if fingerprints then
        Alcotest.(check string)
          (Printf.sprintf "%s %s: fingerprint" name vname)
          (fingerprint mode own) (fingerprint mode shared))
    variants

let queue_variants =
  List.map
    (fun (a, mode) -> (Q.annotation_name a, Q.sites a, mode))
    [ (Q.Unannotated, Ps.Config.Strict); (Q.Epoch, Ps.Config.Epoch);
      (Q.Racing, Ps.Config.Epoch); (Q.Strand, Ps.Config.Strand);
      (Q.Buggy_epoch, Ps.Config.Epoch) ]

let kv_variants =
  List.map
    (fun (d, mode) -> (Kv.discipline_name d, Kv.sites d, mode))
    [ (Kv.Strict_stores, Ps.Config.Strict); (Kv.Epoch_undo, Ps.Config.Epoch);
      (Kv.Strand_ops, Ps.Config.Strand); (Kv.Buggy_undo, Ps.Config.Epoch) ]

(* Every DPOR schedule of the fully annotated program at depth 2, on
   SC, replayed under each variant's sites. *)
let test_sites_share_dpor_schedules () =
  let family name params run variants =
    let all = List.concat_map (fun (_, sites, _) -> sites) variants in
    let schedules = ref [] in
    let stats =
      D.explore
        ~on_exec:(fun sched () ->
          schedules := sched :: !schedules;
          D.Continue)
        (fun policy -> run params all policy ~sink:ignore)
    in
    Alcotest.(check bool) (name ^ ": complete") true stats.D.complete;
    List.iter
      (fun sched ->
        check_shared name (run params) variants (fun () ->
            M.Scripted (S.to_script sched)))
      !schedules
  in
  family "queue"
    (Dr.queue.params ~threads:2 ~depth:2 ~seed:1 M.sc_config Q.Epoch)
    (fun p sites policy ~sink ->
      ignore (Q.run ~sites { p with Q.policy } ~sink))
    queue_variants;
  family "kv"
    (Dr.kv.params ~threads:2 ~depth:2 ~seed:1 M.sc_config Kv.Epoch_undo)
    (fun p sites policy ~sink ->
      ignore (Kv.run ~sites { p with Kv.policy } ~sink))
    kv_variants

(* Table 1's points, CWL and 2LC at 1 and 8 threads, 400 inserts: the
   event streams, and each point's metrics from the shared run against
   its own run.  Recording a 2LC persist graph takes seconds at this
   size, so its fingerprints are compared at 48 inserts. *)
let test_sites_share_table1 () =
  let module R = Experiments.Run in
  let variants =
    List.map
      (fun (pt : R.model_point) ->
        ( pt.R.label,
          Q.sites pt.R.annotation,
          pt.R.mode ))
      R.table1_models
  in
  List.iter
    (fun (design, threads) ->
      let check ~fingerprints total_inserts =
        let p = R.queue_params ~design ~threads ~total_inserts R.epoch_point in
        check_shared ~fingerprints
          (Printf.sprintf "%s/%dT/%d" (Q.design_name design) threads
             total_inserts)
          (fun sites policy ~sink ->
            ignore (Q.run ~sites { p with Q.policy } ~sink))
          variants
          (fun () -> p.Q.policy);
        Alcotest.(check bool) "shared metrics" true
          (R.analyze_many p (List.map R.paired R.table1_models)
          = List.map
              (fun (pt : R.model_point) ->
                R.analyze { p with Q.annotation = pt.R.annotation }
                  (Ps.Config.make pt.R.mode))
              R.table1_models)
      in
      check ~fingerprints:(design = Q.Cwl) 400;
      if design = Q.Tlc then check ~fingerprints:true 48)
    [ (Q.Cwl, 1); (Q.Cwl, 8); (Q.Tlc, 1); (Q.Tlc, 8) ]

(* Where a barrier is a fence that drains buffers, points whose sites
   differ do not share a run; points that agree still do. *)
let test_sites_share_refused () =
  let module R = Experiments.Run in
  let p = R.queue_params ~threads:2 ~total_inserts:8 R.epoch_point in
  let points =
    [ (Q.Epoch, Ps.Config.make Ps.Config.Epoch);
      (Q.Racing, Ps.Config.make Ps.Config.Epoch) ]
  in
  List.iter
    (fun (name, p) ->
      Alcotest.match_raises name
        (function Invalid_argument _ -> true | _ -> false)
        (fun () -> ignore (R.analyze_many p points)))
    [ ("tso-sync", { p with Q.machine = M.Tso });
      ("tso-buffered", { p with Q.machine = M.Tso; persistence = M.Pbuffered });
      ("flush+sfence", { p with Q.barrier = M.Flush_sfence }) ];
  Alcotest.match_raises "kv, tso-sync"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      let k = Experiments.Kv_exp.kv_params ~total_ops:8 Ps.Config.Epoch in
      ignore
        (Experiments.Kv_exp.analyze_many { k with Kv.machine = M.Tso }
           [ (Kv.Epoch_undo, Ps.Config.make Ps.Config.Epoch);
             (Kv.Strand_ops, Ps.Config.make Ps.Config.Strand) ]));
  let tso = { p with Q.machine = M.Tso } in
  let same = [ List.hd points; (Q.Epoch, Ps.Config.make Ps.Config.Strict) ] in
  Alcotest.(check bool) "same sites share on tso" true
    (R.analyze_many tso same
    = List.map (fun (_, cfg) -> R.analyze tso cfg) same)

let () =
  Alcotest.run "check"
    [ ( "schedule",
        [ Alcotest.test_case "round-trip" `Quick test_schedule_roundtrip ] );
      ( "dpor-units",
        [ Alcotest.test_case "disjoint: one schedule" `Quick
            test_disjoint_single_schedule;
          Alcotest.test_case "hot word: C(4,2) classes" `Quick test_hot_counts;
          Alcotest.test_case "racy coverage" `Quick test_racy_coverage;
          Alcotest.test_case "mixed-lock coverage" `Quick test_mixed_coverage;
          Alcotest.test_case "three-writers coverage" `Quick
            test_three_coverage ] );
      ( "equivalence",
        [ Alcotest.test_case "cwl depth 2 vs brute" `Quick
            test_queue_equivalence_depth2;
          Alcotest.test_case "cwl buggy depth 2 vs brute" `Quick
            test_queue_equivalence_buggy ] );
      ( "kv-adversarial",
        [ Alcotest.test_case "buggy-undo flagged and replayed" `Quick
            test_kv_buggy_flagged;
          Alcotest.test_case "correct disciplines pass" `Quick
            test_kv_correct_disciplines ] );
      ( "families",
        [ Alcotest.test_case "clean safe, drop caught and replayed" `Quick
            test_families ] );
      ( "tso",
        [ Alcotest.test_case "counter-example replay" `Quick
            test_tso_counterexample_replay ] );
      ( "tso-buffered",
        [ Alcotest.test_case "counter-example replay" `Quick
            test_buffered_counterexample_replay ] );
      ( "guide",
        [ Alcotest.test_case "choice sets pinned" `Quick
            test_guide_choice_sets_pinned ] );
      ( "sites",
        [ Alcotest.test_case "dpor schedules share one run" `Quick
            test_sites_share_dpor_schedules;
          Alcotest.test_case "table1 points share one run" `Quick
            test_sites_share_table1;
          Alcotest.test_case "sharing refused off sc" `Quick
            test_sites_share_refused ] )
    ]
