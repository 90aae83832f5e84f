(* The durable-linearizability oracle on hand-built histories: a
   completed operation must survive the crash, an in-flight operation
   may round either way, an operation with no durable persist must not
   resurrect, and real-time order must be respected by whatever
   linearization explains the recovered state. *)

module D = Check.Dlin
module P = Persistency
module E = Memsim.Event

let checkb = Alcotest.(check bool)

let iset = P.Iset.of_list

let mkop ?(tid = 0) ?(index = 0) ?(label = "op") ~start_ ~finish ~persists
    effect_ =
  { D.tid; index; label; start_; finish; persists = iset persists; effect_ }

let ok = function
  | Ok () -> true
  | Error _ -> false

let check_ok name r = checkb name true (ok r)

let contains s frag =
  let n = String.length s and m = String.length frag in
  let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
  go 0

let check_err name frag r =
  match r with
  | Ok () -> Alcotest.failf "%s: expected violation, got Ok" name
  | Error msg ->
    if frag <> "" && not (contains msg frag) then
      Alcotest.failf "%s: message %S lacks %S" name msg frag

(* Classification against a cut: all-in is Required, partial overlap
   Optional, no overlap (or no persists at all) Excluded. *)
let test_classify () =
  let cut = iset [ 0; 1; 2 ] in
  let k persists = D.classify ~cut (mkop ~start_:0 ~finish:1 ~persists D.Read) in
  checkb "subset required" true (k [ 0; 2 ] = D.Required);
  checkb "partial optional" true (k [ 1; 5 ] = D.Optional);
  checkb "disjoint excluded" true (k [ 7 ] = D.Excluded);
  checkb "no persists excluded" true (k [] = D.Excluded)

(* --- Set oracle ------------------------------------------------- *)

let set_ops =
  [ mkop ~tid:0 ~index:0 ~start_:0 ~finish:10 ~persists:[ 0; 1 ]
      (D.Add { key = 5 });
    mkop ~tid:1 ~index:0 ~start_:2 ~finish:12 ~persists:[ 2; 3 ]
      (D.Add { key = 9 });
    mkop ~tid:0 ~index:1 ~start_:20 ~finish:30 ~persists:[ 4; 5 ]
      (D.Add { key = 7 }) ]

let test_set_holds () =
  (* Everything durable, everything recovered. *)
  check_ok "full"
    (D.check_set ~ops:set_ops ~cut:(iset [ 0; 1; 2; 3; 4; 5 ])
       ~recovered:[ 5; 7; 9 ]);
  (* key 7's insert is in flight (persist 4 durable, 5 not): the
     recovered set may include it or not. *)
  let cut = iset [ 0; 1; 2; 3; 4 ] in
  check_ok "optional present" (D.check_set ~ops:set_ops ~cut ~recovered:[ 5; 7; 9 ]);
  check_ok "optional absent" (D.check_set ~ops:set_ops ~cut ~recovered:[ 5; 9 ])

let test_set_lost_completed () =
  (* key 9 is fully durable but missing from the recovered set. *)
  check_err "lost" "unreachable"
    (D.check_set ~ops:set_ops ~cut:(iset [ 0; 1; 2; 3 ]) ~recovered:[ 5 ])

let test_set_resurrected () =
  (* key 7's insert has no durable persist, yet it is recovered. *)
  check_err "resurrected" "durable persist"
    (D.check_set ~ops:set_ops ~cut:(iset [ 0; 1; 2; 3 ]) ~recovered:[ 5; 7; 9 ]);
  (* A key nobody inserted. *)
  check_err "unknown key" "durable persist"
    (D.check_set ~ops:set_ops ~cut:(iset [ 0; 1; 2; 3 ]) ~recovered:[ 5; 6; 9 ])

(* --- Map oracle ------------------------------------------------- *)

let map_ops =
  (* Two lock-serialized puts to key 1 (op A then op B), one to key 2. *)
  [ mkop ~tid:0 ~index:0 ~start_:0 ~finish:10 ~persists:[ 0 ]
      (D.Put { key = 1; value = 10L });
    mkop ~tid:1 ~index:0 ~start_:12 ~finish:20 ~persists:[ 1 ]
      (D.Put { key = 1; value = 20L });
    mkop ~tid:0 ~index:1 ~start_:22 ~finish:30 ~persists:[ 2 ]
      (D.Put { key = 2; value = 30L }) ]

let test_map_holds () =
  (* Both puts to key 1 durable: only the later value is legal. *)
  check_ok "latest wins"
    (D.check_map ~ops:map_ops ~cut:(iset [ 0; 1; 2 ])
       ~recovered:[ (1, 20L); (2, 30L) ]);
  (* Second put in flight: either value is legal. *)
  let cut = iset [ 0 ] in
  check_ok "old value" (D.check_map ~ops:map_ops ~cut ~recovered:[ (1, 10L) ]);
  checkb "in-flight value" true
    (ok
       (D.check_map
          ~ops:
            [ List.nth map_ops 0;
              mkop ~tid:1 ~index:0 ~start_:12 ~finish:20 ~persists:[ 1; 3 ]
                (D.Put { key = 1; value = 20L }) ]
          ~cut:(iset [ 0; 1 ])
          ~recovered:[ (1, 20L) ]))

let test_map_violations () =
  (* Key 1's first put is fully durable yet the key is unbound. *)
  check_err "lost binding" ""
    (D.check_map ~ops:map_ops ~cut:(iset [ 0 ]) ~recovered:[]);
  (* Durable overwrite rolled back: value 10 is older than the last
     fully durable put (value 20). *)
  check_err "stale value" ""
    (D.check_map ~ops:map_ops ~cut:(iset [ 0; 1 ]) ~recovered:[ (1, 10L) ]);
  (* Value from a put with no durable persist. *)
  check_err "resurrected value" ""
    (D.check_map ~ops:map_ops ~cut:(iset [ 0 ]) ~recovered:[ (1, 20L) ]);
  (* Value nobody ever wrote. *)
  check_err "never written" ""
    (D.check_map ~ops:map_ops ~cut:(iset [ 0 ]) ~recovered:[ (1, 99L) ])

(* --- FIFO oracle ------------------------------------------------ *)

let fifo_ops =
  (* Two sequential enqueues by thread 0, one overlapping by thread 1. *)
  [ mkop ~tid:0 ~index:0 ~start_:0 ~finish:10 ~persists:[ 0 ]
      (D.Enq { etid = 0; eseq = 0 });
    mkop ~tid:1 ~index:0 ~start_:5 ~finish:25 ~persists:[ 1 ]
      (D.Enq { etid = 1; eseq = 0 });
    mkop ~tid:0 ~index:1 ~start_:20 ~finish:30 ~persists:[ 2 ]
      (D.Enq { etid = 0; eseq = 1 }) ]

let test_fifo_holds () =
  let cut = iset [ 0; 1; 2 ] in
  (* (1,0) overlaps both thread-0 ops: any position is legal. *)
  check_ok "order a"
    (D.check_fifo ~ops:fifo_ops ~cut ~recovered:[ (0, 0); (1, 0); (0, 1) ]);
  check_ok "order b"
    (D.check_fifo ~ops:fifo_ops ~cut ~recovered:[ (1, 0); (0, 0); (0, 1) ]);
  (* The overlapping op may drop even with the later op present only
     if it has a non-durable persist; here make it in flight. *)
  check_ok "prefix"
    (D.check_fifo ~ops:fifo_ops ~cut:(iset [ 0 ]) ~recovered:[ (0, 0) ])

let test_fifo_violations () =
  let cut = iset [ 0; 1; 2 ] in
  (* Real-time inversion: (0,1) started after (0,0) finished, so it
     cannot precede it. *)
  check_err "rt inversion" ""
    (D.check_fifo ~ops:fifo_ops ~cut ~recovered:[ (0, 1); (1, 0); (0, 0) ]);
  (* (0,0) finished before (0,1) started: if (0,1) is visible, (0,0)
     must be too. *)
  check_err "rt closure" ""
    (D.check_fifo ~ops:fifo_ops ~cut ~recovered:[ (1, 0); (0, 1) ]);
  (* Entry whose enqueue has no durable persist. *)
  check_err "excluded entry" ""
    (D.check_fifo ~ops:fifo_ops ~cut:(iset [ 0 ]) ~recovered:[ (0, 0); (1, 0) ]);
  (* Entry nobody enqueued. *)
  check_err "unknown entry" ""
    (D.check_fifo ~ops:fifo_ops ~cut ~recovered:[ (7, 7) ])

(* --- Strict reference semantics --------------------------------- *)

(* State: the list of applied keys, in linearization order. *)
let lin ops cut recovered =
  D.check_linearization ~ops ~cut ~init:[]
    ~apply:(fun s op ->
      match op.D.effect_ with
      | D.Add { key } -> s @ [ key ]
      | _ -> s)
    ~equal:(fun a b -> a = b)
    ~recovered

(* a returns before b is invoked; c overlaps b. *)
let lin_ops =
  [ mkop ~tid:0 ~index:0 ~start_:0 ~finish:10 ~persists:[ 0 ]
      (D.Add { key = 1 });
    mkop ~tid:0 ~index:1 ~start_:20 ~finish:30 ~persists:[ 1 ]
      (D.Add { key = 2 });
    mkop ~tid:1 ~index:0 ~start_:15 ~finish:35 ~persists:[ 2 ]
      (D.Add { key = 3 }) ]

let test_lin_holds () =
  let cut = iset [ 0; 1; 2 ] in
  (* c overlaps b: both relative orders are linearizations. *)
  check_ok "order bc" (lin lin_ops cut [ 1; 2; 3 ]);
  check_ok "order cb" (lin lin_ops cut [ 1; 3; 2 ]);
  (* b and c in flight: each may round either way, but the rt-closed
     subsets are exactly {a}, {a,b}, {a,c}, {a,b,c}. *)
  let cut01 = iset [ 0 ] in
  let part =
    [ mkop ~tid:0 ~index:0 ~start_:0 ~finish:10 ~persists:[ 0 ]
        (D.Add { key = 1 });
      mkop ~tid:0 ~index:1 ~start_:20 ~finish:30 ~persists:[ 0; 1 ]
        (D.Add { key = 2 });
      mkop ~tid:1 ~index:0 ~start_:15 ~finish:35 ~persists:[ 0; 2 ]
        (D.Add { key = 3 }) ]
  in
  check_ok "drop both" (lin part cut01 [ 1 ]);
  check_ok "keep one" (lin part cut01 [ 1; 2 ]);
  check_ok "keep both" (lin part cut01 [ 1; 2; 3 ])

let test_lin_lost_completed () =
  (* a is fully durable: every legal linearization applies key 1. *)
  check_err "lost completed" "" (lin lin_ops (iset [ 0; 1; 2 ]) [ 2; 3 ])

let test_lin_resurrected () =
  (* b has no durable persist, yet key 2 appears in the recovered
     state: no legal subset contains it. *)
  check_err "resurrected" "" (lin lin_ops (iset [ 0; 2 ]) [ 1; 2; 3 ])

let test_lin_reordered () =
  (* a returned before b was invoked: key 2 cannot precede key 1. *)
  check_err "reordered" "" (lin lin_ops (iset [ 0; 1; 2 ]) [ 2; 1; 3 ])

let test_lin_rt_closure () =
  (* a Excluded but b Required with a rt-before b: the required set is
     not closed under real-time precedence, so no explanation exists
     whatever the recovered state claims. *)
  let ops =
    [ mkop ~tid:0 ~index:0 ~start_:0 ~finish:10 ~persists:[ 5 ]
        (D.Add { key = 1 });
      mkop ~tid:0 ~index:1 ~start_:20 ~finish:30 ~persists:[ 0 ]
        (D.Add { key = 2 }) ]
  in
  check_err "not rt closed" "" (lin ops (iset [ 0 ]) [ 2 ])

(* --- History recorder ------------------------------------------- *)

(* Feed a synthetic event stream through the sink tee: Labels open
   per-thread operations, persist events land in the open op of their
   thread, loads only extend its extent. *)
let test_history () =
  let h = D.History.create () in
  let forwarded = ref 0 in
  let sink = D.History.sink h (fun _ -> incr forwarded) in
  let store tid addr =
    E.Access (E.Store, { E.tid; addr; size = 8; value = 1L; space = Memsim.Addr.Persistent })
  in
  let load tid addr =
    E.Access (E.Load, { E.tid; addr; size = 8; value = 0L; space = Memsim.Addr.Persistent })
  in
  List.iter sink
    [ E.Label (0, "put");       (* t0 op 0 opens at trace index 0 *)
      store 0 0;                (* persist event 0 *)
      E.Label (1, "put");       (* t1 op 0 *)
      store 1 8;                (* persist event 1 *)
      load 0 8;                 (* extends t0 op 0, no persist *)
      E.Label (0, "put");       (* t0 op 1 *)
      store 0 16 ];             (* persist event 2 *)
  let ops =
    D.History.ops h
      ~node_of_persist:(fun i -> 100 + i)
      ~effect_of:(fun ~tid ~index ->
        D.Put { key = (10 * tid) + index; value = 0L })
  in
  checkb "forwards every event" true (!forwarded = 7);
  Alcotest.(check int) "three ops" 3 (List.length ops);
  let find tid index =
    List.find (fun o -> o.D.tid = tid && o.D.index = index) ops
  in
  let o00 = find 0 0 and o10 = find 1 0 and o01 = find 0 1 in
  checkb "t0 op0 persists" true (P.Iset.equal o00.D.persists (iset [ 100 ]));
  checkb "t1 op0 persists" true (P.Iset.equal o10.D.persists (iset [ 101 ]));
  checkb "t0 op1 persists" true (P.Iset.equal o01.D.persists (iset [ 102 ]));
  checkb "load extends extent" true (o00.D.finish > o10.D.start_);
  checkb "ordered by start" true
    (List.map (fun o -> (o.D.tid, o.D.index)) ops = [ (0, 0); (1, 0); (0, 1) ])

(* [History.ops] against a fold over the recorded trace that keeps its
   per-thread state in maps: the same operations, field for field, in
   the same order.  An 8-thread KV run has more threads than the
   recorder's initial arrays; a tso-buffered lock-free run persists
   through [Pdrain] events. *)
module Imap = Map.Make (Int)

type ref_op = {
  r_index : int;
  r_label : string;
  r_start : int;
  mutable r_finish : int;
  mutable r_pevents : int list;
}

let reference_ops events ~node_of_persist ~effect_of =
  let current = ref Imap.empty and counts = ref Imap.empty in
  let closed = ref [] and pevents = ref 0 in
  let close tid =
    match Imap.find_opt tid !current with
    | Some o ->
      current := Imap.remove tid !current;
      closed := (tid, o) :: !closed
    | None -> ()
  in
  List.iteri
    (fun idx ev ->
      match ev with
      | E.Label (tid, label) ->
        close tid;
        let index = Option.value ~default:0 (Imap.find_opt tid !counts) in
        counts := Imap.add tid (index + 1) !counts;
        current :=
          Imap.add tid
            { r_index = index; r_label = label; r_start = idx; r_finish = idx;
              r_pevents = [] }
            !current
      | ev ->
        (match Imap.find_opt (E.tid ev) !current with
        | Some o ->
          o.r_finish <- idx;
          if E.is_persist ev then o.r_pevents <- !pevents :: o.r_pevents
        | None -> ());
        if E.is_persist ev then incr pevents)
    events;
  Imap.iter (fun tid _ -> close tid) !current;
  List.sort
    (fun (a : D.op) b -> compare a.start_ b.start_)
    (List.map
       (fun (tid, o) ->
         { D.tid; index = o.r_index; label = o.r_label; start_ = o.r_start;
           finish = o.r_finish;
           persists = iset (List.map node_of_persist o.r_pevents);
           effect_ = effect_of ~tid ~index:o.r_index })
       !closed)

let history_matches what (f : _ Check.Driver.family) params policy =
  let hist = D.History.create () and trace = ref [] in
  let engine, result =
    P.Engine.run
      { (P.Config.make P.Config.Epoch) with P.Config.record_graph = true }
      (fun ~sink ->
        f.run params policy
          ~sink:
            (D.History.sink hist (fun ev ->
                 trace := ev :: !trace;
                 sink ev)))
  in
  let node_of_persist = P.Engine.node_of_persist_event engine in
  let effect_of = f.effect_of params result in
  let got = D.History.ops hist ~node_of_persist ~effect_of in
  let events = List.rev !trace in
  let want = reference_ops events ~node_of_persist ~effect_of in
  let show (o : D.op) =
    Printf.sprintf "t%d #%d %s [%d, %d] {%s}" o.tid o.index o.label o.start_
      o.finish
      (String.concat "," (List.map string_of_int (P.Iset.elements o.persists)))
  in
  Alcotest.(check (list string)) (what ^ ": ops") (List.map show want)
    (List.map show got);
  checkb (what ^ ": effects") true
    (List.map (fun (o : D.op) -> o.effect_) want
    = List.map (fun (o : D.op) -> o.effect_) got);
  (got, events)

let test_history_matches_fold () =
  let module M = Memsim.Machine in
  let module Dr = Check.Driver in
  let kv =
    Dr.kv.params ~threads:8 ~depth:2 ~seed:1 M.sc_config Kv.Epoch_undo
  in
  let ops, _ = history_matches "kv 8 threads" Dr.kv kv (M.Random 5) in
  checkb "kv: a thread beyond the fourth" true
    (List.exists (fun (o : D.op) -> o.tid >= 4) ops);
  let lf =
    Dr.lockfree.params ~threads:2 ~depth:2 ~seed:1 M.tso_buffered_config
      Lockfree.Cas_set.Nvtraverse
  in
  let _, events =
    history_matches "lockfree tso-buffered" Dr.lockfree lf (M.Random 3)
  in
  checkb "lockfree: persists through Pdrain" true
    (List.exists (function E.Pdrain _ -> true | _ -> false) events)

let () =
  Alcotest.run "dlin"
    [ ( "classify",
        [ Alcotest.test_case "klass" `Quick test_classify ] );
      ( "set",
        [ Alcotest.test_case "holds" `Quick test_set_holds;
          Alcotest.test_case "lost completed" `Quick test_set_lost_completed;
          Alcotest.test_case "resurrected" `Quick test_set_resurrected ] );
      ( "map",
        [ Alcotest.test_case "holds" `Quick test_map_holds;
          Alcotest.test_case "violations" `Quick test_map_violations ] );
      ( "fifo",
        [ Alcotest.test_case "holds" `Quick test_fifo_holds;
          Alcotest.test_case "violations" `Quick test_fifo_violations ] );
      ( "linearization",
        [ Alcotest.test_case "holds" `Quick test_lin_holds;
          Alcotest.test_case "lost completed" `Quick test_lin_lost_completed;
          Alcotest.test_case "resurrected in-flight" `Quick test_lin_resurrected;
          Alcotest.test_case "reordered dependent" `Quick test_lin_reordered;
          Alcotest.test_case "rt closure" `Quick test_lin_rt_closure ] );
      ( "history",
        [ Alcotest.test_case "recorder" `Quick test_history;
          Alcotest.test_case "ops match a fold over the trace" `Quick
            test_history_matches_fold ] )
    ]
