(* Workload equivalence between DPOR and brute-force exploration: the
   distinct persist graphs (by fingerprint) each explorer reaches and
   the recovery verdict of each one must match, and DPOR must execute
   strictly fewer schedules.  Shared by test_check (depth 2) and the
   depth-3 census ([make census]). *)

module D = Check.Dpor
module Dr = Check.Driver
module Ps = Persistency
module Q = Workloads.Queue

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let strategy = Recovery.auto ~samples:64 ~seed:1

let queue_run ?(depth = 2) annotation mode =
  let params =
    Dr.queue.params ~threads:2 ~depth ~seed:1 Memsim.Machine.sc_config
      annotation
  in
  Dr.instance Dr.queue params (Ps.Config.make mode)

(* Collect one representative instance per distinct graph fingerprint. *)
let dpor_census instance_of =
  let reps = Hashtbl.create 64 in
  let stats =
    D.explore
      ~on_exec:(fun _ inst ->
        let fp = Ps.Graph_export.fingerprint inst.Dr.graph in
        if not (Hashtbl.mem reps fp) then Hashtbl.add reps fp inst;
        D.Continue)
      instance_of
  in
  (stats, reps)

let brute_census ~limit instance_of =
  let reps = Hashtbl.create 64 in
  let o =
    Memsim.Explore.run_all ~limit (fun policy ->
        let inst = instance_of policy in
        let fp = Ps.Graph_export.fingerprint inst.Dr.graph in
        if not (Hashtbl.mem reps fp) then Hashtbl.add reps fp inst)
  in
  (o, reps)

(* safe/unsafe per fingerprint.  The verdict is isomorphism-invariant
   (exhaustive failure injection on these graph sizes); the failing
   prefix's identity is not, so only the verdict is compared. *)
let verdict inst =
  let g = inst.Dr.graph in
  match
    Recovery.check_cuts ~graph:g ~capacity:inst.Dr.capacity
      ~strategy:(strategy g) inst.Dr.observer
  with
  | Ok _ -> "safe"
  | Error _ -> "unsafe"

let verdict_map reps =
  List.sort compare
    (Hashtbl.fold (fun fp inst acc -> (fp, verdict inst) :: acc) reps [])

let check_equivalence name ~limit instance_of =
  let stats, dpor = dpor_census instance_of in
  let o, brute = brute_census ~limit instance_of in
  Alcotest.(check bool) (name ^ ": dpor complete") true stats.D.complete;
  Alcotest.(check bool)
    (name ^ ": brute complete")
    true o.Memsim.Explore.complete;
  Alcotest.(check (list string))
    (name ^ ": same fingerprint set")
    (sorted_keys brute) (sorted_keys dpor);
  Alcotest.(check (list (pair string string)))
    (name ^ ": same recovery verdicts")
    (verdict_map brute) (verdict_map dpor);
  Alcotest.(check bool)
    (name ^ ": strictly fewer schedules")
    true
    (stats.D.schedules < o.Memsim.Explore.traces);
  (stats, o, dpor)
