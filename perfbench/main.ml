(* One benchmark run of one workload, on one domain: set-up (repeated,
   each with an untimed warm-up round), then timed rounds until the
   time is up, each followed by a timing of a fixed reference
   computation.  With --trace, every timed round is also followed by a
   traced round of the same work, so the per-layer split and the
   tracing overhead come from one process.  Prints one JSON object of
   raw samples on stdout; perfbench/run.py turns it into metrics. *)

module J = Obs.Json

let workloads : (module Workload.S) list =
  [ (module Repro_sweep); (module Crash_lockfree); (module Recover_kv) ]

let min_rounds = 3

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type sample = {
  wall : float;
  cpu : float;
  alloc : float;
  outcome : Workload.outcome;
}

let sample f =
  let c0 = cpu_s () in
  let outcome, d = Obs.Perfscope.measure f in
  { wall = d.Obs.Perfscope.wall_s;
    cpu = cpu_s () -. c0;
    alloc = Obs.Perfscope.alloc_words d;
    outcome }

(* A fixed computation that uses nothing of the repository, timed after
   every round.  The host's speed drifts with other tenants' load; a
   round's cost relative to this reference drifts far less.  Its maps
   stay small, so it adds little to the heap and the peak RSS. *)
module Imap = Map.Make (Int)

let reference () =
  let sum = ref 0 in
  for round = 1 to 100 do
    let m = ref Imap.empty in
    for i = 1 to 2_000 do
      m := Imap.add (i * 7919 * round mod 100_003) i !m
    done;
    sum := Imap.fold (fun k v acc -> acc + (k lxor v)) !m !sum
  done;
  !sum

let time_reference () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (reference ()));
  Unix.gettimeofday () -. t0

let obj kvs = J.Obj (List.map (fun (k, v) -> (k, J.Str v)) kvs)
let floats l = J.List (List.map (fun x -> J.Float x) l)

let metrics lr =
  J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (Layers.metrics lr))

let sample_json ?layers s =
  J.Obj
    ([ ("wall_s", J.Float s.wall); ("cpu_s", J.Float s.cpu);
       ("alloc_words", J.Float s.alloc);
       ("work", J.Float s.outcome.Workload.work);
       ("outputs", obj s.outcome.Workload.outputs) ]
    @ match layers with Some lr -> [ ("layers", metrics lr) ] | None -> [])

let run (module W : Workload.S) ~seed ~seconds ~trace ~setups ~spans_out =
  (* Set-up: seeded input generation plus one untimed warm-up round,
     each followed by a reference timing.  The first set-up's state is
     the one measured; the repeats only time set-up again. *)
  let setup_once () =
    let lr = if trace then Layers.create () else Layers.off in
    let t0 = Unix.gettimeofday () in
    let st = W.setup ~seed lr in
    ignore (W.round st);
    let dt = Unix.gettimeofday () -. t0 in
    (st, dt, time_reference (), lr)
  in
  let st, dt, r, setup_lr = setup_once () in
  let setup_times =
    (dt, r)
    :: List.init (setups - 1) (fun _ ->
           let _, dt, r, _ = setup_once () in
           (dt, r))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec loop n acc =
    if n >= min_rounds && Unix.gettimeofday () >= deadline then List.rev acc
    else begin
      let plain = sample (fun () -> W.round st) in
      let reference = time_reference () in
      let traced =
        if trace then begin
          let lr = Layers.create () in
          Some (sample (fun () -> W.traced_round st lr), lr)
        end
        else None
      in
      loop (n + 1) ((plain, reference, traced) :: acc)
    end
  in
  let rounds = loop 0 [] in
  let final = W.final_check st in
  let traced = List.filter_map (fun (_, _, t) -> t) rounds in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (J.to_string
           (J.List (List.map (fun (_, lr) -> Layers.spans_json lr) traced)));
      close_out oc)
    spans_out;
  J.Obj
    [ ("workload", J.Str W.name);
      ("seed", J.Int seed);
      ("work_name", J.Str W.work_name);
      ("work_unit", J.Str W.work_unit);
      ("ocaml", J.Str Sys.ocaml_version);
      ("setup_s", floats (List.map fst setup_times));
      ("setup_ref_s", floats (List.map snd setup_times));
      ("setup_layers", metrics setup_lr);
      ("rounds", J.List (List.map (fun (s, _, _) -> sample_json s) rounds));
      ("ref_s", floats (List.map (fun (_, r, _) -> r) rounds));
      ( "traced",
        J.List (List.map (fun (s, lr) -> sample_json ~layers:lr s) traced) );
      ("final", obj final);
      ("peak_rss_kb", J.Int (Obs.Perfscope.peak_rss_kb ())) ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref false and setups = ref 3 and spans_out = ref None in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed section length");
      ("--trace", Arg.Set trace, " also run traced rounds");
      ("--setups", Arg.Set_int setups, "N set-up repetitions");
      ("--spans-out", Arg.String (fun s -> spans_out := Some s),
       "FILE write the traced rounds' spans here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N [--seconds S] [--trace]";
  match
    List.find_opt
      (fun (module W : Workload.S) -> String.equal W.name !workload)
      workloads
  with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some w ->
    print_endline
      (J.to_string
         (run w ~seed:!seed ~seconds:!seconds ~trace:!trace
            ~setups:(max 1 !setups) ~spans_out:!spans_out))
