(* Tests for the durable transaction layer: semantics (read-your-writes,
   serialization), recovery replay, atomicity under failure injection
   for each annotation, and error handling. *)

module M = Memsim.Machine
module P = Persistency

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check64 = Alcotest.(check int64)

type env = {
  machine : M.t;
  trace : Memsim.Trace.t;
  table : int;
  mgr : Txn.manager;
}

let make_env ?annotation ?(policy = M.Round_robin) () =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let table = Memsim.Memory.alloc memory Memsim.Addr.Persistent 128 in
  let mgr = Txn.create machine ?annotation ~log_capacity_bytes:4096 () in
  { machine; trace; table; mgr }

let run_thread env body = ignore (M.spawn env.machine body); M.run env.machine

let test_read_your_writes () =
  let env = make_env () in
  let observed = ref [] in
  run_thread env (fun () ->
      Txn.atomically env.mgr (fun t ->
          observed := Txn.read t env.table :: !observed;
          Txn.write t env.table 7L;
          observed := Txn.read t env.table :: !observed;
          Txn.write t env.table 9L;
          observed := Txn.read t env.table :: !observed));
  Alcotest.(check (list int64)) "reads" [ 9L; 7L; 0L ] !observed;
  run_thread env (fun () ->
      check64 "committed in place" 9L (M.load env.table))

let test_empty_txn () =
  let env = make_env () in
  run_thread env (fun () -> Txn.atomically env.mgr (fun _ -> ()));
  checki "nothing committed" 0 (Txn.committed env.mgr);
  (* lock released: a second transaction still works *)
  run_thread env (fun () ->
      Txn.atomically env.mgr (fun t -> Txn.write t env.table 1L));
  checki "one committed" 1 (Txn.committed env.mgr)

let test_write_validation () =
  let env = make_env () in
  run_thread env (fun () ->
      Txn.atomically env.mgr (fun t ->
          Alcotest.match_raises "volatile"
            (function Invalid_argument _ -> true | _ -> false)
            (fun () -> Txn.write t (Memsim.Addr.volatile_base + 8) 1L);
          Alcotest.match_raises "misaligned"
            (function Invalid_argument _ -> true | _ -> false)
            (fun () -> Txn.write t (env.table + 4) 1L)))

let test_log_exhaustion () =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~memory () in
  M.set_sink machine ignore;
  let table = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  let mgr = Txn.create machine ~log_capacity_bytes:64 () in
  ignore
    (M.spawn machine (fun () ->
         (* 1 write = 32 bytes of log: the third transaction overflows *)
         Txn.atomically mgr (fun t -> Txn.write t table 1L);
         Txn.atomically mgr (fun t -> Txn.write t table 2L);
         Alcotest.match_raises "log exhausted"
           (function Failure _ -> true | _ -> false)
           (fun () -> Txn.atomically mgr (fun t -> Txn.write t table 3L))));
  M.run machine

let test_serialization_across_threads () =
  let env = make_env ~policy:(M.Random 5) () in
  (* two threads increment the same counter transactionally *)
  for _ = 1 to 2 do
    ignore
      (M.spawn env.machine (fun () ->
           for _ = 1 to 25 do
             Txn.atomically env.mgr (fun t ->
                 Txn.read t env.table |> fun v ->
                 Txn.write t env.table (Int64.add v 1L))
           done))
  done;
  M.run env.machine;
  run_thread env (fun () ->
      check64 "no lost updates" 50L (M.load env.table));
  checki "all committed" 50 (Txn.committed env.mgr)

let analyze_graph env =
  let cfg = P.Config.make ~record_graph:true P.Config.Epoch in
  let engine = P.Engine.create cfg in
  P.Engine.observe_trace engine env.trace;
  Option.get (P.Engine.graph engine)

let test_recovery_replay () =
  let env = make_env () in
  run_thread env (fun () ->
      Txn.atomically env.mgr (fun t ->
          Txn.write t env.table 5L;
          Txn.write t (env.table + 8) 6L);
      Txn.atomically env.mgr (fun t -> Txn.write t env.table 7L));
  let graph = analyze_graph env in
  let capacity = snd (Txn.log_range env.mgr) in
  let image = P.Observer.final_image graph ~capacity in
  Txn.recover_image env.mgr image;
  check64 "latest value" 7L (Bytes.get_int64_le image env.table);
  check64 "other field" 6L (Bytes.get_int64_le image (env.table + 8))

let test_recovery_corrupt_log () =
  let env = make_env () in
  run_thread env (fun () ->
      Txn.atomically env.mgr (fun t -> Txn.write t env.table 1L));
  let capacity = snd (Txn.log_range env.mgr) in
  let image = Bytes.make capacity '\000' in
  (* a tail with no record behind it *)
  Bytes.set_int64_le image (fst (Txn.log_range env.mgr)) 32L;
  Alcotest.match_raises "corrupt record"
    (function Failure _ -> true | _ -> false)
    (fun () -> Txn.recover_image env.mgr image);
  Bytes.set_int64_le image (fst (Txn.log_range env.mgr)) 99999L;
  Alcotest.match_raises "corrupt tail"
    (function Failure _ -> true | _ -> false)
    (fun () -> Txn.recover_image env.mgr image)

(* atomicity under failure injection, for each annotation/model pair *)
let atomicity_check ~annotation ~mode () =
  let env = make_env ~annotation ~policy:(M.Random 11) () in
  (* pairs of cells that must always be equal after recovery *)
  for tid = 0 to 1 do
    ignore
      (M.spawn env.machine (fun () ->
           for i = 1 to 8 do
             let v = Int64.of_int ((tid * 100) + i) in
             Txn.atomically env.mgr (fun t ->
                 Txn.write t env.table v;
                 Txn.write t (env.table + 8) v)
           done))
  done;
  M.run env.machine;
  let cfg = P.Config.make ~record_graph:true mode in
  let engine = P.Engine.create cfg in
  P.Engine.observe_trace engine env.trace;
  let graph = Option.get (P.Engine.graph engine) in
  let capacity = snd (Txn.log_range env.mgr) in
  let check image =
    Txn.recover_image env.mgr image;
    let a = Bytes.get_int64_le image env.table in
    let b = Bytes.get_int64_le image (env.table + 8) in
    if Int64.equal a b then Ok ()
    else Error (Printf.sprintf "torn transaction: %Ld <> %Ld" a b)
  in
  match
    Recovery.check_invariant ~graph ~capacity
      ~strategy:(Recovery.Sampled { samples = 300; seed = 7 })
      check
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_atomicity_epoch () =
  atomicity_check ~annotation:Txn.Epoch_txn ~mode:P.Config.Epoch ()

let test_atomicity_strand () =
  atomicity_check ~annotation:Txn.Strand_txn ~mode:P.Config.Strand ()

let test_atomicity_strict () =
  atomicity_check ~annotation:Txn.Unannotated ~mode:P.Config.Strict ()

let test_unannotated_unsafe_under_epoch () =
  (* the epoch model with no barriers must admit a torn transaction —
     the annotation burden is real *)
  let env = make_env ~annotation:Txn.Unannotated ~policy:(M.Random 11) () in
  ignore
    (M.spawn env.machine (fun () ->
         for i = 1 to 8 do
           Txn.atomically env.mgr (fun t ->
               Txn.write t env.table (Int64.of_int i);
               Txn.write t (env.table + 8) (Int64.of_int i))
         done));
  M.run env.machine;
  let cfg = P.Config.make ~record_graph:true P.Config.Epoch in
  let engine = P.Engine.create cfg in
  P.Engine.observe_trace engine env.trace;
  let graph = Option.get (P.Engine.graph engine) in
  let capacity = snd (Txn.log_range env.mgr) in
  let check image =
    (* a corrupt log (tail durable without its record) is equally a
       recovery failure *)
    match Txn.recover_image env.mgr image with
    | exception Failure msg -> Error msg
    | () ->
      let a = Bytes.get_int64_le image env.table in
      let b = Bytes.get_int64_le image (env.table + 8) in
      if Int64.equal a b then Ok () else Error "torn"
  in
  checkb "missing barriers are caught" true
    (Recovery.check_invariant ~graph ~capacity
       ~strategy:(Recovery.Sampled { samples = 400; seed = 7 })
       check
    <> Ok ())

let () =
  Alcotest.run "txn"
    [ ( "semantics",
        [ Alcotest.test_case "read your writes" `Quick test_read_your_writes;
          Alcotest.test_case "empty txn" `Quick test_empty_txn;
          Alcotest.test_case "write validation" `Quick test_write_validation;
          Alcotest.test_case "log exhaustion" `Quick test_log_exhaustion;
          Alcotest.test_case "serialization" `Quick
            test_serialization_across_threads ] );
      ( "recovery",
        [ Alcotest.test_case "replay" `Quick test_recovery_replay;
          Alcotest.test_case "corrupt log" `Quick test_recovery_corrupt_log;
          Alcotest.test_case "atomic under epoch" `Slow test_atomicity_epoch;
          Alcotest.test_case "atomic under strand" `Slow test_atomicity_strand;
          Alcotest.test_case "atomic under strict" `Slow test_atomicity_strict;
          Alcotest.test_case "unannotated is unsafe" `Slow
            test_unannotated_unsafe_under_epoch ] ) ]
