(* Tests for the memsim substrate: addresses, growable vectors, events,
   simulated memory with allocators, the SC machine, and traces. *)

module A = Memsim.Addr
module M = Memsim.Machine

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Addr *)

let test_spaces () =
  checkb "0 is persistent" true (A.equal_space (A.space_of 0) A.Persistent);
  checkb "below base is persistent" true
    (A.equal_space (A.space_of (A.volatile_base - 1)) A.Persistent);
  checkb "base is volatile" true
    (A.equal_space (A.space_of A.volatile_base) A.Volatile);
  checkb "spaces differ" false (A.equal_space A.Volatile A.Persistent)

let test_alignment () =
  checkb "8 aligned to 8" true (A.is_aligned ~size:8 8);
  checkb "12 not aligned to 8" false (A.is_aligned ~size:8 12);
  checkb "12 aligned to 4" true (A.is_aligned ~size:4 12);
  checki "align_up 13 to 8" 16 (A.align_up 13 ~quantum:8);
  checki "align_up 16 to 8" 16 (A.align_up 16 ~quantum:8);
  checki "align_up 0" 0 (A.align_up 0 ~quantum:8)

let test_blocks () =
  checki "block of 0" 0 (A.block ~gran:8 0);
  checki "block of 15" 1 (A.block ~gran:8 15);
  checki "block coarse" 0 (A.block ~gran:64 63);
  checkb "pow2 8" true (A.is_power_of_two 8);
  checkb "pow2 1" true (A.is_power_of_two 1);
  checkb "pow2 12" false (A.is_power_of_two 12);
  checkb "pow2 0" false (A.is_power_of_two 0)

(* Vec *)

let test_vec_basic () =
  let v = Memsim.Vec.create () in
  checkb "empty" true (Memsim.Vec.is_empty v);
  for i = 0 to 99 do
    Memsim.Vec.push v i
  done;
  checki "length" 100 (Memsim.Vec.length v);
  checki "get 42" 42 (Memsim.Vec.get v 42);
  Memsim.Vec.set v 42 1000;
  checki "set" 1000 (Memsim.Vec.get v 42);
  check (Alcotest.list Alcotest.int) "to_list head"
    [ 0; 1; 2 ]
    (List.filteri (fun i _ -> i < 3) (Memsim.Vec.to_list v))

let test_vec_swap_remove () =
  let v = Memsim.Vec.of_list [ 1; 2; 3; 4 ] in
  checki "swap_remove returns" 2 (Memsim.Vec.swap_remove v 1);
  checki "length after" 3 (Memsim.Vec.length v);
  checki "last moved in" 4 (Memsim.Vec.get v 1);
  check (Alcotest.option Alcotest.int) "pop" (Some 3) (Memsim.Vec.pop v);
  Memsim.Vec.clear v;
  checkb "cleared" true (Memsim.Vec.is_empty v);
  check (Alcotest.option Alcotest.int) "pop empty" None (Memsim.Vec.pop v)

let test_vec_bounds () =
  let v = Memsim.Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Memsim.Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> Memsim.Vec.set v (-1) 0)

let test_vec_fold () =
  let v = Memsim.Vec.of_list [ 1; 2; 3 ] in
  checki "fold sum" 6 (Memsim.Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Memsim.Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  checki "iteri count" 3 (List.length !acc)

let test_vec_grow_array () =
  let a = [| 1; 2 |] in
  checkb "big enough: same array" true (Memsim.Vec.grow_array a 2 0 == a);
  let b = Memsim.Vec.grow_array a 3 9 in
  checki "at least doubled" 4 (Array.length b);
  checkb "old elements in front, fill behind" true (b = [| 1; 2; 9; 9 |]);
  checki "past double" 7 (Array.length (Memsim.Vec.grow_array a 7 0));
  checki "from empty" 1 (Array.length (Memsim.Vec.grow_array [||] 1 0))

(* Persistence buffer: the indexed heads, oldest entry and eligibility
   against a brute-force scan of the pending entries, after every step
   of random enqueue/drain sequences.  Few lines and threads, so lines
   queue up behind their heads and epochs block each other. *)

module Pb = Memsim.Pbuf

let pb_entries pb = List.init (Pb.length pb) (Pb.get pb)

let pb_brute_head pb e =
  List.for_all
    (fun f -> Pb.addr f asr 3 <> Pb.addr e asr 3 || Pb.seq f >= Pb.seq e)
    (pb_entries pb)

let pb_brute_ok pb e =
  pb_brute_head pb e
  && List.for_all
       (fun f -> Pb.tid f <> Pb.tid e || Pb.epoch f >= Pb.epoch e)
       (pb_entries pb)

let pb_brute_oldest pb =
  List.fold_left
    (fun best e ->
      if best < 0 || Pb.seq e < Pb.seq (Pb.get pb best) then Pb.pos e else best)
    (-1) (pb_entries pb)

let pb_check what pb =
  let n = Pb.length pb in
  let oks = ref 0 in
  for i = 0 to n - 1 do
    let e = Pb.get pb i in
    checki (what ^ ": position") i (Pb.pos e);
    checkb (what ^ ": head") (pb_brute_head pb e) (Pb.head e);
    checkb (what ^ ": eligible") (pb_brute_ok pb e) (Pb.eligible pb i);
    if Pb.eligible pb i then incr oks
  done;
  checki (what ^ ": eligible count") !oks (Pb.eligible_count pb);
  checki (what ^ ": oldest") (pb_brute_oldest pb) (Pb.oldest pb);
  if n > 0 then checkb (what ^ ": oldest eligible") true
      (Pb.eligible pb (Pb.oldest pb))

let test_pbuf_matches_scan () =
  for seed = 0 to 99 do
    let rng = Random.State.make [| seed |] in
    let pb = Pb.create () in
    let threads = 1 + Random.State.int rng 3
    and lines = 1 + Random.State.int rng 4 in
    let epoch = Array.make threads 0 in
    let drained = ref 0 and pushed = ref 0 in
    for step = 1 to 60 do
      let what = Printf.sprintf "seed %d step %d" seed step in
      if Pb.length pb = 0 || Random.State.int rng 5 < 3 then begin
        let tid = Random.State.int rng threads in
        if Random.State.int rng 3 = 0 then epoch.(tid) <- epoch.(tid) + 1;
        Pb.push pb ~tid ~kind:Memsim.Event.Clwb
          ~addr:(8 * Random.State.int rng lines)
          ~epoch:epoch.(tid);
        incr pushed;
        checki (what ^ ": stamp") !pushed
          (Pb.seq (Pb.get pb (Pb.length pb - 1)))
      end
      else begin
        let ok =
          List.filter (Pb.eligible pb) (List.init (Pb.length pb) Fun.id)
        in
        let i = List.nth ok (Random.State.int rng (List.length ok)) in
        let seq = Pb.seq (Pb.get pb i) in
        checki (what ^ ": drained") seq (Pb.seq (Pb.drain pb i));
        incr drained
      end;
      pb_check what pb
    done;
    (* drain the rest oldest first, as round-robin does *)
    while Pb.length pb > 0 do
      ignore (Pb.drain pb (Pb.oldest pb));
      incr drained;
      pb_check (Printf.sprintf "seed %d drain" seed) pb
    done;
    checki "every entry drained" !pushed !drained
  done;
  let pb = Pb.create () in
  Pb.push pb ~tid:0 ~kind:Memsim.Event.Clwb ~addr:0 ~epoch:0;
  Pb.push pb ~tid:0 ~kind:Memsim.Event.Clwb ~addr:0 ~epoch:0;
  Alcotest.check_raises "drain of a non-head"
    (Invalid_argument "Pbuf.drain: entry is not eligible") (fun () ->
      ignore (Pb.drain pb 1))

(* Event *)

let sample_events =
  [ Memsim.Event.Access
      ( Memsim.Event.Load,
        { tid = 0; addr = 8; size = 8; value = 77L; space = A.Persistent } );
    Memsim.Event.Access
      ( Memsim.Event.Store,
        { tid = 1;
          addr = A.volatile_base + 16;
          size = 4;
          value = -1L;
          space = A.Volatile } );
    Memsim.Event.Access
      ( Memsim.Event.Rmw,
        { tid = 2; addr = 64; size = 8; value = 1L; space = A.Persistent } );
    Memsim.Event.Persist_barrier { tid = 3; site = "" };
    Memsim.Event.New_strand { tid = 4; site = "" };
    Memsim.Event.Label (5, "insert with spaces");
    Memsim.Event.Flush { tid = 6; kind = Memsim.Event.Clflushopt; addr = 24 };
    Memsim.Event.Flush { tid = 7; kind = Memsim.Event.Clwb; addr = 32 };
    Memsim.Event.Fence { tid = 8; kind = Memsim.Event.Sfence };
    Memsim.Event.Fence { tid = 9; kind = Memsim.Event.Mfence } ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      let ev' = Memsim.Event.of_string (Memsim.Event.to_string ev) in
      checkb "roundtrip equal" true (Memsim.Event.equal ev ev'))
    (sample_events
    @ (* named sites, as the queue and KV workloads issue them *)
    [ Memsim.Event.Persist_barrier { tid = 3; site = "data-head" };
      Memsim.Event.New_strand { tid = 4; site = "put-strand" } ]);
  checkb "the site is part of the event" false
    (Memsim.Event.equal
       (Memsim.Event.Persist_barrier { tid = 3; site = "" })
       (Memsim.Event.Persist_barrier { tid = 3; site = "data-head" }))

let test_event_is_persist () =
  let persist = function
    | true -> "persist"
    | false -> "no"
  in
  let expect =
    [ false (* load *); false (* volatile store *); true (* persistent rmw *);
      false; false; false; false; false; false; false ]
  in
  List.iter2
    (fun ev e ->
      check Alcotest.string "is_persist" (persist e)
        (persist (Memsim.Event.is_persist ev)))
    sample_events expect

let test_event_tid () =
  check (Alcotest.list Alcotest.int) "tids" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map Memsim.Event.tid sample_events)

let test_event_bad_parse () =
  Alcotest.check_raises "garbage"
    (Failure "Event.of_string: malformed line: nonsense") (fun () ->
      ignore (Memsim.Event.of_string "nonsense"))

(* Memory *)

let test_memory_rw () =
  let m = Memsim.Memory.create () in
  Memsim.Memory.store m ~addr:8 ~size:8 0x1122334455667788L;
  check Alcotest.int64 "read back" 0x1122334455667788L
    (Memsim.Memory.load m ~addr:8 ~size:8);
  check Alcotest.int64 "low word" 0x55667788L
    (Memsim.Memory.load m ~addr:8 ~size:4);
  check Alcotest.int64 "byte" 0x88L (Memsim.Memory.load m ~addr:8 ~size:1);
  Memsim.Memory.store m ~addr:16 ~size:2 0xBEEFL;
  check Alcotest.int64 "u16" 0xBEEFL (Memsim.Memory.load m ~addr:16 ~size:2)

let test_memory_volatile_isolated () =
  let m = Memsim.Memory.create () in
  Memsim.Memory.store m ~addr:8 ~size:8 1L;
  Memsim.Memory.store m ~addr:(A.volatile_base + 8) ~size:8 2L;
  check Alcotest.int64 "persistent unchanged" 1L
    (Memsim.Memory.load m ~addr:8 ~size:8);
  check Alcotest.int64 "volatile value" 2L
    (Memsim.Memory.load m ~addr:(A.volatile_base + 8) ~size:8)

let test_memory_errors () =
  let m = Memsim.Memory.create ~persistent_capacity:1024 () in
  let raises name f = Alcotest.match_raises name (function
    | Invalid_argument _ -> true
    | _ -> false) f
  in
  raises "bad size" (fun () -> ignore (Memsim.Memory.load m ~addr:8 ~size:3));
  raises "misaligned" (fun () -> ignore (Memsim.Memory.load m ~addr:12 ~size:8));
  raises "oob" (fun () -> ignore (Memsim.Memory.load m ~addr:1024 ~size:8));
  raises "create zero" (fun () ->
      ignore (Memsim.Memory.create ~persistent_capacity:0 ()))

let test_alloc_basic () =
  let m = Memsim.Memory.create () in
  let a = Memsim.Memory.alloc m A.Persistent 100 in
  let b = Memsim.Memory.alloc m A.Persistent 8 in
  checkb "aligned a" true (A.is_aligned ~size:8 a);
  checkb "aligned b" true (A.is_aligned ~size:8 b);
  checkb "disjoint" true (b >= a + 100);
  checkb "never null" true (a > 0);
  let v = Memsim.Memory.alloc m A.Volatile 16 in
  checkb "volatile space" true (A.equal_space (A.space_of v) A.Volatile);
  checki "live bytes persistent" (104 + 8)
    (Memsim.Memory.allocated_bytes m A.Persistent)

let test_alloc_reuse () =
  let m = Memsim.Memory.create ~persistent_capacity:1024 () in
  let a = Memsim.Memory.alloc m A.Persistent 64 in
  Memsim.Memory.store m ~addr:a ~size:8 99L;
  Memsim.Memory.free m a;
  checki "live after free" 0 (Memsim.Memory.allocated_bytes m A.Persistent);
  let b = Memsim.Memory.alloc m A.Persistent 64 in
  checki "first fit reuses" a b;
  check Alcotest.int64 "zeroed on alloc" 0L (Memsim.Memory.load m ~addr:b ~size:8)

let test_alloc_split () =
  let m = Memsim.Memory.create ~persistent_capacity:1024 () in
  let a = Memsim.Memory.alloc m A.Persistent 64 in
  Memsim.Memory.free m a;
  let b = Memsim.Memory.alloc m A.Persistent 16 in
  let c = Memsim.Memory.alloc m A.Persistent 16 in
  checki "split head" a b;
  checki "split remainder" (a + 16) c

let test_alloc_errors () =
  let m = Memsim.Memory.create ~persistent_capacity:256 () in
  Alcotest.match_raises "double free"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      let a = Memsim.Memory.alloc m A.Persistent 8 in
      Memsim.Memory.free m a;
      Memsim.Memory.free m a);
  Alcotest.check_raises "out of memory" Out_of_memory (fun () ->
      ignore (Memsim.Memory.alloc m A.Persistent 4096))

(* Machine *)

let machine_with_trace ?policy () =
  let memory = Memsim.Memory.create () in
  let m = M.create ?policy ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink m (Memsim.Trace.sink trace);
  (m, memory, trace)

let test_machine_single_thread () =
  let m, memory, trace = machine_with_trace () in
  let a = Memsim.Memory.alloc memory A.Persistent 16 in
  ignore
    (M.spawn m (fun () ->
         M.store a 7L;
         let v = M.load a in
         M.store (a + 8) (Int64.add v 1L)));
  M.run m;
  check Alcotest.int64 "result" 8L (Memsim.Memory.load memory ~addr:(a + 8) ~size:8);
  checki "events" 3 (Memsim.Trace.length trace);
  checki "persists" 2 (Memsim.Trace.persists trace)

let test_machine_program_order () =
  (* a thread's events appear in program order in the trace *)
  let m, memory, trace = machine_with_trace ~policy:(M.Random 99) () in
  let a = Memsim.Memory.alloc memory A.Persistent 64 in
  for t = 0 to 3 do
    ignore
      (M.spawn m (fun () ->
           for i = 0 to 7 do
             M.store (a + (8 * t)) (Int64.of_int i)
           done))
  done;
  M.run m;
  let last = Hashtbl.create 4 in
  Memsim.Trace.iter
    (fun ev ->
      match ev with
      | Memsim.Event.Access (_, acc) ->
        let prev =
          Option.value ~default:(-1L) (Hashtbl.find_opt last acc.tid)
        in
        checkb "program order" true (acc.value > prev);
        Hashtbl.replace last acc.tid acc.value
      | _ -> ())
    trace;
  checki "threads" 4 (Memsim.Trace.threads trace)

let test_machine_rmw_atomic () =
  let m, memory, _ = machine_with_trace ~policy:(M.Random 3) () in
  let counter = Memsim.Memory.alloc memory A.Volatile 8 in
  for _ = 1 to 4 do
    ignore
      (M.spawn m (fun () ->
           for _ = 1 to 100 do
             ignore (M.fetch_add counter 1L)
           done))
  done;
  M.run m;
  check Alcotest.int64 "atomic increments" 400L
    (Memsim.Memory.load memory ~addr:counter ~size:8)

let test_machine_lock_mutual_exclusion () =
  let m, memory, _ = machine_with_trace ~policy:(M.Random 17) () in
  let shared = Memsim.Memory.alloc memory A.Volatile 8 in
  let l = M.mutex m in
  for _ = 1 to 4 do
    ignore
      (M.spawn m (fun () ->
           for _ = 1 to 50 do
             M.lock l;
             (* non-atomic read-modify-write, safe only under the lock *)
             let v = M.load shared in
             M.yield ();
             M.store shared (Int64.add v 1L);
             M.unlock l
           done))
  done;
  M.run m;
  check Alcotest.int64 "lock protects" 200L
    (Memsim.Memory.load memory ~addr:shared ~size:8)

let test_machine_lock_fifo () =
  (* FIFO hand-off: waiters acquire in arrival order *)
  let m, memory, _ = machine_with_trace () in
  let order = Memsim.Memory.alloc memory A.Volatile 64 in
  let idx = Memsim.Memory.alloc memory A.Volatile 8 in
  let l = M.mutex m in
  for t = 0 to 2 do
    ignore
      (M.spawn m (fun () ->
           M.lock l;
           let i = M.fetch_add idx 1L in
           M.store (order + (8 * Int64.to_int i)) (Int64.of_int t);
           M.unlock l))
  done;
  M.run m;
  (* round-robin spawn order: thread 0 acquires first, then 1, 2 *)
  List.iter
    (fun i ->
      check Alcotest.int64 "fifo order" (Int64.of_int i)
        (Memsim.Memory.load memory ~addr:(order + (8 * i)) ~size:8))
    [ 0; 1; 2 ]

let test_machine_unlock_not_owner () =
  let m, _, _ = machine_with_trace () in
  let l = M.mutex m in
  ignore (M.spawn m (fun () -> M.unlock l));
  Alcotest.match_raises "unlock without lock"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> M.run m)

let test_machine_deadlock () =
  let m, _, _ = machine_with_trace () in
  let l1 = M.mutex m in
  let l2 = M.mutex m in
  ignore
    (M.spawn m (fun () ->
         M.lock l1;
         M.yield ();
         M.lock l2;
         M.unlock l2;
         M.unlock l1));
  ignore
    (M.spawn m (fun () ->
         M.lock l2;
         M.yield ();
         M.lock l1;
         M.unlock l1;
         M.unlock l2));
  Alcotest.match_raises "deadlock detected"
    (function M.Deadlock _ -> true | _ -> false)
    (fun () -> M.run m)

let test_machine_bytes_roundtrip () =
  let m, memory, trace = machine_with_trace () in
  let a = Memsim.Memory.alloc memory A.Persistent 128 in
  let payload = Bytes.init 100 (fun i -> Char.chr (i mod 256)) in
  let out = ref Bytes.empty in
  ignore
    (M.spawn m (fun () ->
         M.store_bytes a payload;
         out := M.load_bytes a 100));
  M.run m;
  checkb "bytes roundtrip" true (Bytes.equal payload !out);
  (* 100 bytes = 12 word stores + 4-byte tail: 13 stores, same loads *)
  checki "events" 26 (Memsim.Trace.length trace);
  checki "persists" 13 (Memsim.Trace.persists trace)

let test_machine_barrier_events () =
  let m, memory, trace = machine_with_trace () in
  let a = Memsim.Memory.alloc memory A.Persistent 8 in
  ignore
    (M.spawn m (fun () ->
         M.label "op";
         M.store a 1L;
         M.persist_barrier ();
         M.new_strand ();
         M.store a 2L));
  M.run m;
  let kinds =
    List.map
      (function
        | Memsim.Event.Label _ -> "label"
        | Memsim.Event.Access (Memsim.Event.Store, _) -> "store"
        | Memsim.Event.Persist_barrier _ -> "pb"
        | Memsim.Event.New_strand _ -> "ns"
        | Memsim.Event.Flush _ -> "flush"
        | Memsim.Event.Fence _ -> "fence"
        | Memsim.Event.Pdrain _ -> "pdrain"
        | Memsim.Event.Access (_, _) -> "other")
      (Memsim.Trace.to_list trace)
  in
  check (Alcotest.list Alcotest.string) "event kinds"
    [ "label"; "store"; "pb"; "ns"; "store" ]
    kinds;
  (* labels and barriers are not memory events *)
  checki "memory event count" 2 (M.event_count m)

let test_machine_malloc_op () =
  let m, memory, _ = machine_with_trace () in
  let result = ref 0 in
  ignore
    (M.spawn m (fun () ->
         let a = M.malloc A.Persistent 32 in
         M.store a 5L;
         M.mfree a;
         result := a));
  M.run m;
  checkb "allocated in persistent space" true
    (A.equal_space (A.space_of !result) A.Persistent);
  checki "freed" 0 (Memsim.Memory.allocated_bytes memory A.Persistent)

let test_machine_interleaving_differs () =
  (* different seeds produce different interleavings (almost surely) *)
  let run seed =
    let m, memory, trace = machine_with_trace ~policy:(M.Random seed) () in
    let a = Memsim.Memory.alloc memory A.Persistent 8 in
    for t = 0 to 1 do
      ignore
        (M.spawn m (fun () ->
             for _ = 1 to 20 do
               M.store a (Int64.of_int t)
             done))
    done;
    M.run m;
    List.map Memsim.Event.tid (Memsim.Trace.to_list trace)
  in
  checkb "seeds differ" true (run 1 <> run 2)

let test_machine_self () =
  let m, _, _ = machine_with_trace () in
  let ids = ref [] in
  for _ = 0 to 2 do
    ignore
      (M.spawn m (fun () ->
           let me = M.self () in
           ids := me :: !ids))
  done;
  M.run m;
  check (Alcotest.list Alcotest.int) "self ids" [ 2; 1; 0 ] !ids

let test_machine_two_phases () =
  let m, memory, _ = machine_with_trace () in
  let a = Memsim.Memory.alloc memory A.Persistent 8 in
  ignore (M.spawn m (fun () -> M.store a 1L));
  M.run m;
  ignore (M.spawn m (fun () -> M.store a (Int64.add (M.load a) 1L)));
  M.run m;
  check Alcotest.int64 "phased runs" 2L (Memsim.Memory.load memory ~addr:a ~size:8)

(* TSO load forwarding across mixed-size buffered stores: the newest
   buffered byte wins, a drained store leaves the newer ones visible to
   their thread, and another thread sees memory only.  Choices, in
   candidate order (bag entries, then store-buffer drains): start t0
   (its three stores issue into its buffer, its first load waits);
   run t0's first load; drain t0's oldest entry (the word); run t0's
   two other loads; start t1; run t1's load. *)
let test_machine_tso_mixed_forwarding () =
  let memory = Memsim.Memory.create () in
  let m =
    M.create ~policy:(M.Scripted (M.script ~forced:[ 0; 1; 2; 1; 1; 0; 0 ]))
      ~model:M.Tso ~memory ()
  in
  let trace = Memsim.Trace.create () in
  M.set_sink m (Memsim.Trace.sink trace);
  let a = Memsim.Memory.alloc memory A.Persistent 8 in
  let before = ref 0L and upper = ref 0L and after = ref 0L in
  let other = ref 0L and drained_before_other = ref 0 in
  ignore
    (M.spawn m (fun () ->
         M.store a 0x1122334455667788L;
         M.store_sz ~size:4 (a + 4) 0xAABBCCDDL;
         M.store_sz ~size:2 (a + 6) 0xEEFFL;
         before := M.load a;
         upper := M.load_sz ~size:4 (a + 4);
         after := M.load a));
  ignore
    (M.spawn m (fun () ->
         drained_before_other := Memsim.Trace.length trace;
         other := M.load a));
  M.run m;
  (* bytes a..a+3 from the word, a+4..a+5 from the 4-byte store, a+6..a+7
     from the 2-byte store *)
  check Alcotest.int64 "load before any drain" 0xEEFFCCDD55667788L !before;
  check Alcotest.int64 "upper half" 0xEEFFCCDDL !upper;
  check Alcotest.int64 "load after the word drained" 0xEEFFCCDD55667788L !after;
  check Alcotest.int64 "other thread sees memory only" 0x1122334455667788L
    !other;
  (match Memsim.Trace.to_list trace with
  | Memsim.Event.Access (Memsim.Event.Load, l1)
    :: Memsim.Event.Access (Memsim.Event.Store, s1)
    :: _ ->
    checki "first load by t0" 0 l1.Memsim.Event.tid;
    checki "first drain is the word" 8 s1.Memsim.Event.size
  | _ -> Alcotest.fail "expected a load, then the word's drain");
  checki "events before t1 ran: three loads, one drain" 4
    !drained_before_other;
  check Alcotest.int64 "memory after every drain" 0xEEFFCCDD55667788L
    (Memsim.Memory.load memory ~addr:a ~size:8)

(* Seeded random schedules, pinned event for event: a digest of every
   [Event.to_string] line of three whole runs.  The configurations cover
   each kind of scheduling choice the [Random] policy draws from: thread
   steps only (queue, SC), store-buffer drains (CAS set, tso-sync), and
   persistence-buffer drains as well (CAS set, tso-buffered). *)

let trace_digest run =
  let lines = ref [] in
  ignore (run ~sink:(fun ev -> lines := Memsim.Event.to_string ev :: !lines));
  let text = String.concat "\n" (List.rev !lines) in
  (List.length !lines, Digest.to_hex (Digest.string text))

let test_random_schedules_pinned () =
  let queue =
    Experiments.Run.queue_params ~design:Workloads.Queue.Cwl ~threads:8
      ~total_inserts:96 ~seed:7 Experiments.Run.epoch_point
  in
  let set mconfig =
    Experiments.Lockfree_exp.set_params ~threads:2 ~inserts:12 ~seed:5 ~mconfig
      Lockfree.Cas_set.Nvtraverse
  in
  let pin name expected got = check Alcotest.(pair int string) name expected got in
  pin "queue cwl 8T sc" (2304, "973f38071c1639409855dcb5fbd28ca9")
    (trace_digest (Workloads.Queue.run queue));
  pin "cas set 2T tso-sync" (601, "ad1b33b415d04e1b6982c94e8a16975b")
    (trace_digest (Lockfree.Cas_set.run (set M.tso_sync_config)));
  pin "cas set 2T tso-buffered" (691, "d292619ecb942ff38a85d3f813e2d115")
    (trace_digest (Lockfree.Cas_set.run (set M.tso_buffered_config)))

(* Whole-run traces pinned across every family, policy and machine: the
   event count and digest of each run's [Event.to_string] lines.  The
   queue runs CWL and 2LC (one lock-contended, one lock-split) at 1 and
   4 threads; the lock-free set and the KV store run 2 threads.  Each
   runs under two [Random] seeds and [Round_robin], on sc, tso-sync and
   tso-buffered — every kind of scheduling choice (thread steps, lock
   hand-offs, store-buffer and persistence-buffer drains) under every
   policy that draws from it. *)

module Dr = Check.Driver

let pin_workloads mc =
  let queue design threads policy ~sink =
    let p = Dr.queue.params ~threads ~depth:4 ~seed:3 mc Workloads.Queue.Epoch in
    Workloads.Queue.run { p with design; policy } ~sink
  in
  [ ("queue cwl 1T", fun policy ~sink -> ignore (queue Cwl 1 policy ~sink));
    ("queue cwl 4T", fun policy ~sink -> ignore (queue Cwl 4 policy ~sink));
    ("queue 2lc 1T", fun policy ~sink -> ignore (queue Tlc 1 policy ~sink));
    ("queue 2lc 4T", fun policy ~sink -> ignore (queue Tlc 4 policy ~sink));
    ( "cas set 2T",
      fun policy ~sink ->
        let p =
          Dr.lockfree.params ~threads:2 ~depth:4 ~seed:5 mc
            Lockfree.Cas_set.Nvtraverse
        in
        ignore (Dr.lockfree.run p policy ~sink) );
    ( "kv 2T",
      fun policy ~sink ->
        let p =
          Dr.kv.params ~threads:2 ~depth:4 ~seed:2 mc
            (Kv.discipline_for Persistency.Config.Epoch)
        in
        ignore (Dr.kv.run p policy ~sink) ) ]

let pin_policies =
  [ ("random 1", fun () -> M.Random 1);
    ("random 7", fun () -> M.Random 7);
    ("round-robin", fun () -> M.Round_robin) ]

let trace_pins =
  [ (("queue cwl 1T", "sc", "random 1"), (52, "10cb89870b6774808a992028c25b633a"));
    (("queue cwl 1T", "sc", "random 7"), (52, "10cb89870b6774808a992028c25b633a"));
    (("queue cwl 1T", "sc", "round-robin"), (52, "10cb89870b6774808a992028c25b633a"));
    (("queue cwl 4T", "sc", "random 1"), (208, "ac979ca781821c600513fbac10dfd094"));
    (("queue cwl 4T", "sc", "random 7"), (208, "be3693a755a252270844247e2d72c84d"));
    (("queue cwl 4T", "sc", "round-robin"), (208, "71b88b671666e971377596870893ccd9"));
    (("queue 2lc 1T", "sc", "random 1"), (128, "8595951cc8f123fce043e701b8876121"));
    (("queue 2lc 1T", "sc", "random 7"), (128, "8595951cc8f123fce043e701b8876121"));
    (("queue 2lc 1T", "sc", "round-robin"), (128, "8595951cc8f123fce043e701b8876121"));
    (("queue 2lc 4T", "sc", "random 1"), (526, "af5972bb3f96457e1a8c791a7dfe6d1f"));
    (("queue 2lc 4T", "sc", "random 7"), (527, "2984253443f0f4d5ece08ea7db94210a"));
    (("queue 2lc 4T", "sc", "round-robin"), (527, "c0ccb1626a261c3689217f858477bf9d"));
    (("cas set 2T", "sc", "random 1"), (143, "c19487b3c566fee71db422a663391003"));
    (("cas set 2T", "sc", "random 7"), (143, "aa1b4c8495a7a467869436470a74a9c8"));
    (("cas set 2T", "sc", "round-robin"), (143, "bbcfc18faefc86defe32d65d27ef7c45"));
    (("kv 2T", "sc", "random 1"), (130, "a8c3e67fd09ac0760c099deb389c0411"));
    (("kv 2T", "sc", "random 7"), (134, "dc90c33995b97706f707a80a50860e54"));
    (("kv 2T", "sc", "round-robin"), (130, "a8c3e67fd09ac0760c099deb389c0411"));
    (("queue cwl 1T", "tso-sync", "random 1"), (68, "a0aff05f1e4011e7b6d105859a96f81a"));
    (("queue cwl 1T", "tso-sync", "random 7"), (68, "a0aff05f1e4011e7b6d105859a96f81a"));
    (("queue cwl 1T", "tso-sync", "round-robin"), (68, "a0aff05f1e4011e7b6d105859a96f81a"));
    (("queue cwl 4T", "tso-sync", "random 1"), (272, "5f3e90b7f0867a1ce7ff6035dbe780f8"));
    (("queue cwl 4T", "tso-sync", "random 7"), (272, "8df321eb866a2bf6cb274c320471d2f5"));
    (("queue cwl 4T", "tso-sync", "round-robin"), (272, "5074f434d44564e41d6a08c0d65c1a16"));
    (("queue 2lc 1T", "tso-sync", "random 1"), (144, "aa57d4eeaa405810c9828abe567f2e2b"));
    (("queue 2lc 1T", "tso-sync", "random 7"), (144, "24c2e4f4715d362a59831ae6d8e2cb82"));
    (("queue 2lc 1T", "tso-sync", "round-robin"), (144, "dc0be0b579a4127eb1534bd94c5a7c98"));
    (("queue 2lc 4T", "tso-sync", "random 1"), (591, "01b80dbd89132bba9c6735abf26fca6d"));
    (("queue 2lc 4T", "tso-sync", "random 7"), (591, "fe43c95436445490efd629034175b782"));
    (("queue 2lc 4T", "tso-sync", "round-robin"), (591, "4dfb1132dc3e51243ce80615517f5392"));
    (("cas set 2T", "tso-sync", "random 1"), (147, "4aee309745a4a7717bacf26caaf1cffa"));
    (("cas set 2T", "tso-sync", "random 7"), (134, "9071773b0ea31526ab0520858ae5d4c0"));
    (("cas set 2T", "tso-sync", "round-robin"), (143, "c7e859b2de9f5c1d99c046cc7b1cb318"));
    (("kv 2T", "tso-sync", "random 1"), (188, "58810367b01ad7ed271b048dc9dce51e"));
    (("kv 2T", "tso-sync", "random 7"), (192, "9d0d22dfc34c1496ef9ff8f80aee3e45"));
    (("kv 2T", "tso-sync", "round-robin"), (188, "58810367b01ad7ed271b048dc9dce51e"));
    (("queue cwl 1T", "tso-buffered", "random 1"), (84, "2f6733e2daf72a480d55a8e93d9bd8e0"));
    (("queue cwl 1T", "tso-buffered", "random 7"), (84, "4736b4d1d02ee218c700aacba263a51d"));
    (("queue cwl 1T", "tso-buffered", "round-robin"), (84, "99ddb960ca56be7a2b3974a31c8cd98d"));
    (("queue cwl 4T", "tso-buffered", "random 1"), (336, "a91b2e4a6e05c03df4c7a7779e1aed4e"));
    (("queue cwl 4T", "tso-buffered", "random 7"), (336, "2408b0e5c1a8347fc2bec8002ec71c65"));
    (("queue cwl 4T", "tso-buffered", "round-robin"), (336, "5feb3825e09a6631c3a5d24b5dcc6bd4"));
    (("queue 2lc 1T", "tso-buffered", "random 1"), (160, "646032c2f67494743fdf7ee184536c87"));
    (("queue 2lc 1T", "tso-buffered", "random 7"), (160, "dde9963893c47b50f9af25b58c1305a5"));
    (("queue 2lc 1T", "tso-buffered", "round-robin"), (160, "41dab9deabf3e233e32276d89e22b846"));
    (("queue 2lc 4T", "tso-buffered", "random 1"), (655, "c741380163f2d78c3122e1bfa8221c39"));
    (("queue 2lc 4T", "tso-buffered", "random 7"), (655, "89fefce2af6ddc31826d8d7fa209ee80"));
    (("queue 2lc 4T", "tso-buffered", "round-robin"), (655, "addbf92d19f172936260ecfcd956159b"));
    (("cas set 2T", "tso-buffered", "random 1"), (178, "d3da48087664da04e75ca40abd6eefe3"));
    (("cas set 2T", "tso-buffered", "random 7"), (176, "37746b4f7b696a6864403321638c0623"));
    (("cas set 2T", "tso-buffered", "round-robin"), (188, "3530dbde6278a76e7cf08fb0861eff1d"));
    (("kv 2T", "tso-buffered", "random 1"), (246, "9ed346b01f716bce261e8286ee097919"));
    (("kv 2T", "tso-buffered", "random 7"), (250, "8e3b19b1421f7a9ef691e29c1553d1f4"));
    (("kv 2T", "tso-buffered", "round-robin"), (246, "8a5a2a337313e8d78004089fcb90021d")) ]

let test_workload_traces_pinned () =
  List.iter
    (fun (mc : M.mconfig) ->
      List.iter
        (fun (w, run) ->
          List.iter
            (fun (p, policy) ->
              let key = (w, mc.mlabel, p) in
              check
                Alcotest.(pair int string)
                (Printf.sprintf "%s %s %s" w mc.mlabel p)
                (List.assoc key trace_pins)
                (trace_digest (run (policy ()))))
            pin_policies)
        (pin_workloads mc))
    M.all_configs

(* A forced-prefix [Scripted] run: its trace and every decision it
   logged, forced or defaulted. *)
let test_scripted_prefix_pinned () =
  let script = M.script ~forced:[ 1; 0; 2; 1; 1; 0; 1; 1; 0; 1; 1 ] in
  let run =
    List.assoc "cas set 2T" (pin_workloads M.tso_buffered_config)
      (M.Scripted script)
  in
  let count, digest = trace_digest run in
  let choices =
    String.concat ","
      (List.map
         (fun (c, n) -> Printf.sprintf "%d/%d" c n)
         (M.script_choices script))
  in
  check
    Alcotest.(pair (pair int string) string)
    "cas set 2T tso-buffered, forced prefix"
    ((179, "97da29d6c01243863d709a6bbfede4af"),
     "a354b81649d1e4c8a1b751e924df9060")
    ((count, digest), Digest.to_hex (Digest.string choices))

(* The schedules one DPOR exploration visits, in order, per machine:
   the KV store at 2 threads, within a 40-schedule budget. *)
let test_dpor_schedules_pinned () =
  List.iter
    (fun ((mc : M.mconfig), expected) ->
      let run = List.assoc "kv 2T" (pin_workloads mc) in
      let buf = Buffer.create 4096 in
      let st =
        Check.Dpor.explore ~max_schedules:40
          ~on_exec:(fun s () ->
            Buffer.add_string buf (Format.asprintf "%a\n" Check.Schedule.pp s);
            Check.Dpor.Continue)
          (fun policy -> run policy ~sink:ignore)
      in
      check
        Alcotest.(triple int int string)
        mc.mlabel expected
        ( st.Check.Dpor.schedules,
          st.steps,
          Digest.to_hex (Digest.string (Buffer.contents buf)) ))
    [ (M.sc_config, (18, 3641, "4e834c0490b82cac5fdeb9d098198e0a"));
      (M.tso_sync_config, (40, 7464, "9cd0c76aa1f1452eb9238c8fb1d9de1f"));
      (M.tso_buffered_config, (40, 9880, "2f1f6f19483116db68a8e0dfa4ca2f2f")) ]

(* The thread context's contract.  A thread-context operation outside a
   running thread raises [Effect.Unhandled], scheduling point or not. *)
let test_context_outside_thread () =
  let unhandled name f =
    Alcotest.match_raises name
      (function Effect.Unhandled _ -> true | _ -> false)
      (fun () -> ignore (f ()))
  in
  unhandled "load" (fun () -> M.load 8);
  unhandled "self" (fun () -> M.self ());
  unhandled "label" (fun () -> M.label "x");
  unhandled "malloc" (fun () -> M.malloc A.Persistent 8);
  unhandled "persist barrier" (fun () -> M.persist_barrier ());
  (* a sink runs in the scheduler's context, not a thread's *)
  let m, memory, _ = machine_with_trace () in
  let a = Memsim.Memory.alloc memory A.Persistent 8 in
  M.set_sink m (fun _ -> ignore (M.load a));
  ignore (M.spawn m (fun () -> M.store a 1L));
  unhandled "from a sink" (fun () -> M.run m)

(* Misuse of a lock raises [Invalid_argument] out of [run] whichever
   thread's context the step runs in: alone, or after another thread. *)
let test_context_lock_misuse () =
  let raises name policy body =
    let m, _, _ = machine_with_trace ~policy () in
    let l = M.mutex m in
    ignore (M.spawn m (fun () -> M.store (M.malloc A.Volatile 8) 0L));
    ignore (M.spawn m (body l));
    Alcotest.match_raises name
      (function Invalid_argument _ -> true | _ -> false)
      (fun () -> M.run m)
  in
  List.iter
    (fun (p, policy) ->
      raises ("unlock not owner, " ^ p) (policy ()) (fun l () -> M.unlock l);
      raises ("re-entrant lock, " ^ p) (policy ()) (fun l () ->
          M.lock l;
          M.lock l))
    pin_policies

(* After a [Deadlock] the next run on the same domain reproduces its
   pinned trace: the deadlocked run left no thread context behind. *)
let test_context_after_deadlock () =
  test_machine_deadlock ();
  let run = List.assoc "queue cwl 4T" (pin_workloads M.sc_config) in
  check
    Alcotest.(pair int string)
    "queue cwl 4T sc random 7 after a deadlock"
    (List.assoc ("queue cwl 4T", "sc", "random 7") trace_pins)
    (trace_digest (run (M.Random 7)))

(* Two machines running at once on two domains each keep their own
   thread context: both reproduce their serial traces. *)
let test_context_two_domains () =
  let cells =
    [ ("queue cwl 4T", M.sc_config, "random 7", M.Random 7);
      ("cas set 2T", M.tso_buffered_config, "random 1", M.Random 1) ]
  in
  let got =
    Parallel.Pool.map_cells ~domains:2
      (fun (w, mc, _, policy) ->
        trace_digest (List.assoc w (pin_workloads mc) policy))
      cells
  in
  List.iter2
    (fun (w, (mc : M.mconfig), p, _) digest ->
      check
        Alcotest.(pair int string)
        (Printf.sprintf "%s %s %s on a pool domain" w mc.mlabel p)
        (List.assoc (w, mc.mlabel, p) trace_pins)
        digest)
    cells got

(* Under [Guided], [on_step] fires once per step, after [choose], with
   the step's dynamic footprint.  The guide cycles through each choice
   set's positions, so the run mixes steps that continue the thread
   that just ran, switches, store-buffer drains and blocked lock
   acquires; the whole choose/on_step conversation is pinned. *)
let test_context_guided_steps () =
  let log = Buffer.create 1024 in
  let turn = ref 0 and chosen = ref [] and stepped = ref [] in
  let guide =
    { M.choose =
        (fun infos ->
          incr turn;
          let s = infos.(!turn mod Array.length infos) in
          chosen := s.M.tid :: !chosen;
          Buffer.add_string log
            (Printf.sprintf "choose %s -> %d\n"
               (String.concat ","
                  (Array.to_list
                     (Array.map (fun (s : M.step_info) -> string_of_int s.tid)
                        infos)))
               s.tid);
          s.tid);
      on_step =
        (fun tid accs ->
          stepped := tid :: !stepped;
          Buffer.add_string log
            (Printf.sprintf "step %d %s\n" tid
               (String.concat ","
                  (List.map
                     (fun (a : M.access) ->
                       Printf.sprintf "%d+%d%c" a.addr a.size
                         (if a.write then 'w' else 'r'))
                     accs)))) }
  in
  let memory = Memsim.Memory.create () in
  let m = M.create ~policy:(M.Guided guide) ~model:M.Tso ~memory () in
  let a = Memsim.Memory.alloc memory A.Persistent 16 in
  let l = M.mutex m in
  for t = 0 to 2 do
    ignore
      (M.spawn m (fun () ->
           M.store (a + (8 * (t land 1))) (Int64.of_int t);
           M.lock l;
           ignore (M.load a);
           M.label "in";
           M.clwb a;
           M.sfence ();
           M.unlock l;
           ignore (M.load (a + 8))))
  done;
  M.run m;
  checki "one on_step per choose" (List.length !chosen) (List.length !stepped);
  check (Alcotest.list Alcotest.int) "on_step reports the chosen tid" !chosen
    !stepped;
  check Alcotest.string "choose/on_step conversation"
    "146ce8a011046e8a1a4804fbb77b05e5"
    (Digest.to_hex (Digest.string (Buffer.contents log)))

(* Trace *)

let test_trace_serialization () =
  let t = Memsim.Trace.of_list sample_events in
  let file = Filename.temp_file "trace" ".txt" in
  let oc = open_out file in
  Memsim.Trace.to_channel oc t;
  close_out oc;
  let ic = open_in file in
  let t' = Memsim.Trace.of_channel ic in
  close_in ic;
  Sys.remove file;
  checki "length preserved" (Memsim.Trace.length t) (Memsim.Trace.length t');
  List.iter2
    (fun a b -> checkb "event preserved" true (Memsim.Event.equal a b))
    (Memsim.Trace.to_list t) (Memsim.Trace.to_list t')

let () =
  Alcotest.run "memsim"
    [ ( "addr",
        [ Alcotest.test_case "spaces" `Quick test_spaces;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "blocks" `Quick test_blocks ] );
      ( "vec",
        [ Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "fold" `Quick test_vec_fold;
          Alcotest.test_case "grow_array" `Quick test_vec_grow_array ] );
      ( "pbuf",
        [ Alcotest.test_case "indexes match a scan" `Quick
            test_pbuf_matches_scan ] );
      ( "event",
        [ Alcotest.test_case "roundtrip" `Quick test_event_roundtrip;
          Alcotest.test_case "is_persist" `Quick test_event_is_persist;
          Alcotest.test_case "tid" `Quick test_event_tid;
          Alcotest.test_case "bad parse" `Quick test_event_bad_parse ] );
      ( "memory",
        [ Alcotest.test_case "read write" `Quick test_memory_rw;
          Alcotest.test_case "space isolation" `Quick test_memory_volatile_isolated;
          Alcotest.test_case "errors" `Quick test_memory_errors;
          Alcotest.test_case "alloc basic" `Quick test_alloc_basic;
          Alcotest.test_case "alloc reuse" `Quick test_alloc_reuse;
          Alcotest.test_case "alloc split" `Quick test_alloc_split;
          Alcotest.test_case "alloc errors" `Quick test_alloc_errors ] );
      ( "machine",
        [ Alcotest.test_case "single thread" `Quick test_machine_single_thread;
          Alcotest.test_case "program order" `Quick test_machine_program_order;
          Alcotest.test_case "rmw atomic" `Quick test_machine_rmw_atomic;
          Alcotest.test_case "lock mutual exclusion" `Quick
            test_machine_lock_mutual_exclusion;
          Alcotest.test_case "lock fifo" `Quick test_machine_lock_fifo;
          Alcotest.test_case "unlock not owner" `Quick
            test_machine_unlock_not_owner;
          Alcotest.test_case "deadlock" `Quick test_machine_deadlock;
          Alcotest.test_case "bytes roundtrip" `Quick
            test_machine_bytes_roundtrip;
          Alcotest.test_case "barrier events" `Quick test_machine_barrier_events;
          Alcotest.test_case "malloc op" `Quick test_machine_malloc_op;
          Alcotest.test_case "interleavings differ" `Quick
            test_machine_interleaving_differs;
          Alcotest.test_case "self" `Quick test_machine_self;
          Alcotest.test_case "two phases" `Quick test_machine_two_phases;
          Alcotest.test_case "random schedules pinned" `Quick
            test_random_schedules_pinned;
          Alcotest.test_case "tso mixed-size forwarding" `Quick
            test_machine_tso_mixed_forwarding ] );
      ( "trace pins",
        [ Alcotest.test_case "workload traces" `Quick
            test_workload_traces_pinned;
          Alcotest.test_case "scripted prefix" `Quick
            test_scripted_prefix_pinned;
          Alcotest.test_case "dpor schedules" `Quick
            test_dpor_schedules_pinned ] );
      ( "thread context",
        [ Alcotest.test_case "outside a thread" `Quick
            test_context_outside_thread;
          Alcotest.test_case "lock misuse" `Quick test_context_lock_misuse;
          Alcotest.test_case "after a deadlock" `Quick
            test_context_after_deadlock;
          Alcotest.test_case "two domains" `Quick test_context_two_domains;
          Alcotest.test_case "guided steps" `Quick test_context_guided_steps ]
      );
      ( "trace",
        [ Alcotest.test_case "serialization" `Quick test_trace_serialization ] )
    ]
