module M = Memsim.Machine
module P = Persistency

(* ------------------------------------------------------------------ *)
(* Program syntax                                                      *)
(* ------------------------------------------------------------------ *)

type instr =
  | St of string * int
  | Ld of string * string
  | Flush of string
  | Clwb of string
  | Sfence
  | Mfence
  | Pbarrier
  | Rmwi of string

type obs =
  | Reg of int * string
  | Final of string
  | Persisted of string

type expect = {
  allowed : string list;
  forbidden : string list;
}

type test = {
  name : string;
  doc : string;
  vars : string list;
  threads : instr list list;
  observe : obs list;
  sc : expect;
  tso : expect;
  tso_buf : expect option;
}

let obs_label = function
  | Reg (t, r) -> Printf.sprintf "%d:%s" t r
  | Final v -> v
  | Persisted v -> v ^ "*"

let render kvs =
  String.concat " "
    (List.map (fun (o, v) -> Printf.sprintf "%s=%d" (obs_label o) v) kvs)

(* Expectation builders: [outcomes] is the cartesian product of the
   given per-observable domains, rendered in [observe] order; [minus]
   carves the forbidden set out of it. *)
let outcomes (doms : (obs * int list) list) : string list =
  let rec go = function
    | [] -> [ [] ]
    | (o, dom) :: rest ->
      let tails = go rest in
      List.concat_map (fun v -> List.map (fun t -> (o, v) :: t) tails) dom
  in
  List.map render (go doms)

let minus all bad = List.filter (fun o -> not (List.mem o bad)) all

let one (kvs : (obs * int) list) = render kvs

let validate t =
  if List.length t.vars > List.length (List.sort_uniq compare t.vars) then
    invalid_arg (t.name ^ ": duplicate variable");
  List.iter
    (fun o ->
      if List.mem o t.sc.allowed then
        invalid_arg (t.name ^ ": SC forbidden outcome also allowed: " ^ o))
    t.sc.forbidden;
  List.iter
    (fun o ->
      if List.mem o t.tso.allowed then
        invalid_arg (t.name ^ ": TSO forbidden outcome also allowed: " ^ o))
    t.tso.forbidden;
  (* SC executions are a subset of TSO executions: anything SC allows,
     TSO must allow. *)
  List.iter
    (fun o ->
      if not (List.mem o t.tso.allowed) then
        invalid_arg (t.name ^ ": SC-allowed outcome missing under TSO: " ^ o))
    t.sc.allowed;
  (* Synchronous executions are buffered executions with eager drains:
     anything TSO-sync allows, TSO-buffered must allow. *)
  match t.tso_buf with
  | None -> ()
  | Some b ->
    List.iter
      (fun o ->
        if List.mem o b.allowed then
          invalid_arg
            (t.name ^ ": TSO-buffered forbidden outcome also allowed: " ^ o))
      b.forbidden;
    List.iter
      (fun o ->
        if not (List.mem o b.allowed) then
          invalid_arg
            (t.name ^ ": TSO-allowed outcome missing under TSO-buffered: " ^ o))
      t.tso.allowed

(* ------------------------------------------------------------------ *)
(* Running one interleaving                                            *)
(* ------------------------------------------------------------------ *)

(* A machine configuration ({!Memsim.Machine.all_configs}) pairs the
   consistency model with the Px86 persistence semantics; the engine is
   configured to match. *)
type mconfig = M.mconfig

let default_cfg =
  P.Config.make ~coalescing:false ~record_graph:true P.Config.Epoch

let buffered_cfg =
  P.Config.make ~coalescing:false ~record_graph:true
    ~px86:P.Config.Px86_buffered P.Config.Epoch

let engine_cfg (c : mconfig) =
  match c.M.persistence with
  | M.Psync -> default_cfg
  | M.Pbuffered -> buffered_cfg

let exec_thread regs vaddr tid instrs () =
  List.iter
    (fun i ->
      match i with
      | St (v, value) -> M.store (vaddr v) (Int64.of_int value)
      | Ld (v, r) ->
        let x = M.load (vaddr v) in
        Hashtbl.replace regs (tid, r) (Int64.to_int x)
      | Flush v -> M.clflushopt (vaddr v)
      | Clwb v -> M.clwb (vaddr v)
      | Sfence -> M.sfence ()
      | Mfence -> M.mfence ()
      | Pbarrier -> M.persist_barrier ()
      | Rmwi v -> ignore (M.fetch_add (vaddr v) 1L))
    instrs

(* Execute [t] under one schedule and return every outcome string the
   schedule can justify: one per legal crash state when the test
   observes persisted values, else exactly one. *)
let run_one ?cfg ?(verify = false) ~config t policy =
  let cfg = match cfg with Some c -> c | None -> engine_cfg config in
  let memory = Memsim.Memory.create ~persistent_capacity:1024 () in
  let machine =
    M.create ~policy ~model:config.M.model ~persistence:config.M.persistence
      ~memory ()
  in
  let engine = P.Engine.create cfg in
  let trace = if verify then Some (Memsim.Trace.create ()) else None in
  (match trace with
  | None -> M.set_sink machine (P.Engine.observe engine)
  | Some tr ->
    let tsink = Memsim.Trace.sink tr in
    M.set_sink machine (fun ev ->
        tsink ev;
        P.Engine.observe engine ev));
  let addrs =
    List.map
      (fun v -> (v, Memsim.Memory.alloc memory Memsim.Addr.Persistent 8))
      t.vars
  in
  let vaddr v = List.assoc v addrs in
  let regs : (int * string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun tid instrs -> ignore (M.spawn machine (exec_thread regs vaddr tid instrs)))
    t.threads;
  M.run machine;
  (match trace with
  | Some tr ->
    (match P.Oracle.verify_engine cfg tr with
    | Ok () -> ()
    | Error e -> failwith (t.name ^ ": engine disagrees with oracle: " ^ e))
  | None -> ());
  let volatile_value o =
    match o with
    | Reg (tid, r) -> (
      match Hashtbl.find_opt regs (tid, r) with
      | Some v -> v
      | None -> failwith (t.name ^ ": register never written: " ^ obs_label o))
    | Final v -> Int64.to_int (Memsim.Memory.load memory ~addr:(vaddr v) ~size:8)
    | Persisted _ -> 0
  in
  let fixed = List.map (fun o -> (o, volatile_value o)) t.observe in
  let has_persisted =
    List.exists (function Persisted _ -> true | _ -> false) t.observe
  in
  if not has_persisted then [ render fixed ]
  else begin
    let graph = Option.get (P.Engine.graph engine) in
    let capacity =
      List.fold_left (fun m (_, a) -> max m (a + 8)) 8 addrs
    in
    let dag = P.Persist_graph.dag graph in
    List.map
      (fun cut ->
        let image = P.Observer.image_of_cut graph cut ~capacity in
        render
          (List.map
             (fun (o, v) ->
               match o with
               | Persisted var ->
                 (o, Int64.to_int (Bytes.get_int64_le image (vaddr var)))
               | Reg _ | Final _ -> (o, v))
             fixed))
      (P.Dag.all_down_closed dag)
  end

(* ------------------------------------------------------------------ *)
(* Exhaustive checking                                                 *)
(* ------------------------------------------------------------------ *)

type method_ = Brute | Dpor

let method_name = function Brute -> "brute" | Dpor -> "dpor"

let expect_for t (c : mconfig) =
  match c.M.model, c.M.persistence with
  | M.Sc, _ -> t.sc
  | M.Tso, M.Psync -> t.tso
  | M.Tso, M.Pbuffered -> ( match t.tso_buf with Some e -> e | None -> t.tso)

type result = {
  test : test;
  config : mconfig;
  how : method_;
  observed : string list;  (* sorted *)
  missing : string list;  (* allowed but never observed *)
  unexpected : string list;  (* observed but not allowed *)
  forbidden_hit : string list;
  schedules : int;
  complete : bool;
}

let pass r =
  r.complete && r.missing = [] && r.unexpected = [] && r.forbidden_hit = []

let check ?cfg ?(verify = false) ?(how = Brute) ?(limit = 200_000) ~config t =
  validate t;
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let record policy =
    List.iter
      (fun o -> Hashtbl.replace seen o ())
      (run_one ?cfg ~verify ~config t policy)
  in
  let schedules, complete =
    match how with
    | Brute ->
      let o = Memsim.Explore.run_all ~limit record in
      (o.Memsim.Explore.traces, o.Memsim.Explore.complete)
    | Dpor ->
      let s =
        Check.Dpor.explore ~max_schedules:limit
          ~on_exec:(fun _ () -> Check.Dpor.Continue)
          record
      in
      (s.Check.Dpor.schedules, s.Check.Dpor.complete)
  in
  let expect = expect_for t config in
  let observed = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []) in
  { test = t;
    config;
    how;
    observed;
    missing = List.filter (fun o -> not (Hashtbl.mem seen o)) expect.allowed;
    unexpected = List.filter (fun o -> not (List.mem o expect.allowed)) observed;
    forbidden_hit = List.filter (Hashtbl.mem seen) expect.forbidden;
    schedules;
    complete }

(* ------------------------------------------------------------------ *)
(* The suite                                                           *)
(* ------------------------------------------------------------------ *)

let r0 = Reg (0, "r0")
let r1_0 = Reg (0, "r1")
let r0_1 = Reg (1, "r0")
let r1 = Reg (1, "r1")

(* --- volatile consistency shapes ---------------------------------- *)

let sb =
  let obs = [ Reg (0, "r0"); Reg (1, "r1") ] in
  let all = outcomes [ (r0, [ 0; 1 ]); (r1, [ 0; 1 ]) ] in
  let weak = one [ (r0, 0); (r1, 0) ] in
  { name = "SB";
    doc = "store buffering: both loads may miss both stores under TSO";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); Ld ("y", "r0") ]; [ St ("y", 1); Ld ("x", "r1") ] ];
    observe = obs;
    sc = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso = { allowed = all; forbidden = [] };
    tso_buf = None }

let sb_mfence =
  let all = outcomes [ (r0, [ 0; 1 ]); (r1, [ 0; 1 ]) ] in
  let weak = one [ (r0, 0); (r1, 0) ] in
  { name = "SB+mfence";
    doc = "mfence between store and load restores SC for SB";
    vars = [ "x"; "y" ];
    threads =
      [ [ St ("x", 1); Mfence; Ld ("y", "r0") ];
        [ St ("y", 1); Mfence; Ld ("x", "r1") ] ];
    observe = [ Reg (0, "r0"); Reg (1, "r1") ];
    sc = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso_buf = None }

let sb_rfi =
  (* store forwarding: each thread re-reads its own store (always sees
     it, from the buffer under TSO), then reads the other variable *)
  let obs = [ r0; r1_0; r0_1; r1 ] in
  let sc_allowed =
    [ one [ (r0, 1); (r1_0, 0); (r0_1, 1); (r1, 1) ];
      one [ (r0, 1); (r1_0, 1); (r0_1, 1); (r1, 0) ];
      one [ (r0, 1); (r1_0, 1); (r0_1, 1); (r1, 1) ] ]
  in
  let weak = one [ (r0, 1); (r1_0, 0); (r0_1, 1); (r1, 0) ] in
  { name = "SB+rfi";
    doc = "SB with read-own-write: forwarding satisfies the rfi reads";
    vars = [ "x"; "y" ];
    threads =
      [ [ St ("x", 1); Ld ("x", "r0"); Ld ("y", "r1") ];
        [ St ("y", 1); Ld ("y", "r0"); Ld ("x", "r1") ] ];
    observe = obs;
    sc = { allowed = sc_allowed; forbidden = [ weak ] };
    tso =
      { allowed = sc_allowed @ [ weak ];
        forbidden =
          [ (* forwarding can never miss the thread's own store *)
            one [ (r0, 0); (r1_0, 0); (r0_1, 1); (r1, 0) ] ] };
    tso_buf = None }

let n6 =
  (* Paul Loewenstein's n6: forwarding lets t0 read its own x=1 while
     t1's x=2 lands after it in memory, yet y stays unread *)
  let obs = [ r0; r1_0; Final "x" ] in
  let sc_allowed =
    [ one [ (r0, 1); (r1_0, 1); (Final "x", 1) ];
      one [ (r0, 2); (r1_0, 1); (Final "x", 2) ];
      one [ (r0, 1); (r1_0, 0); (Final "x", 2) ];
      one [ (r0, 1); (r1_0, 1); (Final "x", 2) ] ]
  in
  let weak = one [ (r0, 1); (r1_0, 0); (Final "x", 1) ] in
  { name = "n6";
    doc = "forwarded read + final state: TSO-only outcome r0=1 r1=0 x=1";
    vars = [ "x"; "y" ];
    threads =
      [ [ St ("x", 1); Ld ("x", "r0"); Ld ("y", "r1") ];
        [ St ("y", 1); St ("x", 2) ] ];
    observe = obs;
    sc = { allowed = sc_allowed; forbidden = [ weak ] };
    tso =
      { allowed = sc_allowed @ [ weak ];
        forbidden = [ one [ (r0, 2); (r1_0, 0); (Final "x", 2) ] ] };
    tso_buf = None }

let mp =
  let all = outcomes [ (r0_1, [ 0; 1 ]); (r1, [ 0; 1 ]) ] in
  let weak = one [ (r0_1, 1); (r1, 0) ] in
  { name = "MP";
    doc = "message passing: FIFO buffers keep TSO as strong as SC";
    vars = [ "x"; "y" ];
    threads =
      [ [ St ("x", 1); St ("y", 1) ]; [ Ld ("y", "r0"); Ld ("x", "r1") ] ];
    observe = [ r0_1; r1 ];
    sc = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso_buf = None }

let lb =
  let all = outcomes [ (r0, [ 0; 1 ]); (r0_1, [ 0; 1 ]) ] in
  let weak = one [ (r0, 1); (r0_1, 1) ] in
  { name = "LB";
    doc = "load buffering: forbidden under SC and TSO alike";
    vars = [ "x"; "y" ];
    threads =
      [ [ Ld ("y", "r0"); St ("x", 1) ]; [ Ld ("x", "r0"); St ("y", 1) ] ];
    observe = [ r0; r0_1 ];
    sc = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso_buf = None }

let w2plus2 =
  let fx = Final "x" and fy = Final "y" in
  let allowed =
    [ one [ (fx, 1); (fy, 2) ]; one [ (fx, 2); (fy, 1) ]; one [ (fx, 2); (fy, 2) ] ]
  in
  let weak = one [ (fx, 1); (fy, 1) ] in
  { name = "2+2W";
    doc = "write serialization: x=1,y=1 needs both second stores first";
    vars = [ "x"; "y" ];
    threads =
      [ [ St ("x", 1); St ("y", 2) ]; [ St ("y", 1); St ("x", 2) ] ];
    observe = [ fx; fy ];
    sc = { allowed; forbidden = [ weak ] };
    tso = { allowed; forbidden = [ weak ] };
    tso_buf = None }

let corr =
  let allowed =
    [ one [ (r0_1, 0); (r1, 0) ];
      one [ (r0_1, 0); (r1, 1) ];
      one [ (r0_1, 0); (r1, 2) ];
      one [ (r0_1, 1); (r1, 1) ];
      one [ (r0_1, 1); (r1, 2) ];
      one [ (r0_1, 2); (r1, 2) ] ]
  in
  { name = "CoRR";
    doc = "coherent read-read: same-address loads never see regress";
    vars = [ "x" ];
    threads =
      [ [ St ("x", 1); St ("x", 2) ]; [ Ld ("x", "r0"); Ld ("x", "r1") ] ];
    observe = [ r0_1; r1 ];
    sc = { allowed; forbidden = [ one [ (r0_1, 2); (r1, 1) ] ] };
    tso = { allowed; forbidden = [ one [ (r0_1, 2); (r1, 1) ] ] };
    tso_buf = None }

(* --- persist-order shapes (epoch engine, coalescing off) ----------- *)

let px = Persisted "x"
let py = Persisted "y"

let all_persist = outcomes [ (px, [ 0; 1 ]); (py, [ 0; 1 ]) ]
let persist_ordered =
  (* y persisted implies x persisted *)
  minus all_persist [ one [ (px, 0); (py, 1) ] ]

let persist_unordered =
  { name = "persist-unordered";
    doc = "two stores, no barrier: any subset may be durable at a crash";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed = all_persist; forbidden = [] };
    tso = { allowed = all_persist; forbidden = [] };
    tso_buf = None }

let flush_sfence =
  { name = "flush+sfence";
    doc = "clflushopt x; sfence orders x's persist before the next store";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); Flush "x"; Sfence; St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed = persist_ordered; forbidden = [ one [ (px, 0); (py, 1) ] ] };
    tso = { allowed = persist_ordered; forbidden = [ one [ (px, 0); (py, 1) ] ] };
    tso_buf =
      Some
        { allowed = persist_ordered;
          forbidden = [ one [ (px, 0); (py, 1) ] ] } }

let flush_no_sfence =
  { name = "flush-no-sfence";
    doc = "clflushopt without a fence orders nothing";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); Flush "x"; St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed = all_persist; forbidden = [] };
    tso = { allowed = all_persist; forbidden = [] };
    tso_buf = None }

let clwb_sfence =
  { name = "clwb+sfence";
    doc = "clwb has the same ordering power as clflushopt";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); Clwb "x"; Sfence; St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed = persist_ordered; forbidden = [ one [ (px, 0); (py, 1) ] ] };
    tso = { allowed = persist_ordered; forbidden = [ one [ (px, 0); (py, 1) ] ] };
    tso_buf = None }

let sfence_no_flush =
  { name = "sfence-no-flush";
    doc = "a fence with no preceding flush constrains no persist";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); Sfence; St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed = all_persist; forbidden = [] };
    tso = { allowed = all_persist; forbidden = [] };
    tso_buf = None }

let pbarrier_order =
  { name = "pbarrier-order";
    doc = "the paper's persist barrier subsumes flush+sfence";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); Pbarrier; St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed = persist_ordered; forbidden = [ one [ (px, 0); (py, 1) ] ] };
    tso = { allowed = persist_ordered; forbidden = [ one [ (px, 0); (py, 1) ] ] };
    tso_buf = None }

let coherence_persist =
  { name = "coherence-persist";
    doc = "same-block stores persist in order (coalescing disabled)";
    vars = [ "x" ];
    threads = [ [ St ("x", 1); St ("x", 2) ] ];
    observe = [ px ];
    sc =
      { allowed = [ one [ (px, 0) ]; one [ (px, 1) ]; one [ (px, 2) ] ];
        forbidden = [] };
    tso =
      { allowed = [ one [ (px, 0) ]; one [ (px, 1) ]; one [ (px, 2) ] ];
        forbidden = [] };
    tso_buf = None }

let cross_thread_flush =
  (* t1 flushes a line t0 wrote; having read x=1, its flush+sfence
     pushes t0's store to durability before t1's own y=1 *)
  let weak = one [ (r0_1, 1); (px, 0); (py, 1) ] in
  let allowed =
    minus (outcomes [ (r0_1, [ 0; 1 ]); (px, [ 0; 1 ]); (py, [ 0; 1 ]) ]) [ weak ]
  in
  { name = "cross-thread-flush";
    doc = "flushing another thread's dirty line orders its persist";
    vars = [ "x"; "y" ];
    threads =
      [ [ St ("x", 1) ];
        [ Ld ("x", "r0"); Flush "x"; Sfence; St ("y", 1) ] ];
    observe = [ r0_1; px; py ];
    sc = { allowed; forbidden = [ weak ] };
    tso = { allowed; forbidden = [ weak ] };
    tso_buf = None }

let mp_flush_sfence =
  (* durable message passing: writer flushes the payload before
     publishing; volatile MP plus persist ordering hold together *)
  let vol =
    minus
      (outcomes [ (r0_1, [ 0; 1 ]); (r1, [ 0; 1 ]) ])
      [ one [ (r0_1, 1); (r1, 0) ] ]
  in
  let allowed =
    List.concat_map
      (fun v -> List.map (fun p -> v ^ " " ^ p) persist_ordered)
      vol
  in
  { name = "MP+flush+sfence";
    doc = "durable message passing: payload persists before the flag";
    vars = [ "x"; "y" ];
    threads =
      [ [ St ("x", 1); Flush "x"; Sfence; St ("y", 1) ];
        [ Ld ("y", "r0"); Ld ("x", "r1") ] ];
    observe = [ r0_1; r1; px; py ];
    sc =
      { allowed;
        forbidden =
          [ one [ (r0_1, 1); (r1, 0); (px, 1); (py, 1) ];
            one [ (r0_1, 0); (r1, 0); (px, 0); (py, 1) ] ] };
    tso =
      { allowed;
        forbidden =
          [ one [ (r0_1, 1); (r1, 0); (px, 1); (py, 1) ];
            one [ (r0_1, 0); (r1, 0); (px, 0); (py, 1) ] ] };
    tso_buf = None }

(* --- buffered-persistency shapes (Px86 persistence buffer) --------- *)

(* The observable difference between synchronous and buffered Px86
   lives in cross-thread crash outcomes mediated by volatile message
   passing: under the synchronous reading, flush+sfence makes the line
   durable before anything the fencing thread publishes afterwards;
   under the buffered reading the line may still sit in the persistence
   buffer when another thread acts on the published value, so that
   thread's persists can reach NVRAM first. *)

let flush_captures_at_flush =
  let allowed =
    [ one [ (px, 0); (py, 0) ];
      one [ (px, 1); (py, 0) ];
      one [ (px, 2); (py, 0) ];
      one [ (px, 1); (py, 1) ];
      one [ (px, 2); (py, 1) ] ]
  in
  let forbidden = [ one [ (px, 0); (py, 1) ] ] in
  { name = "flush-captures-at-flush";
    doc = "clflushopt captures the line at flush time: a later same-line \
           store is not covered by the fence";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); Flush "x"; St ("x", 2); Sfence; St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed; forbidden };
    tso = { allowed; forbidden };
    (* same-thread ordering: the fence is a buffer *frontier*, so the
       flush-before-fence-before-persist chain survives asynchronous
       drains — the buffered sets are exactly the synchronous ones *)
    tso_buf = Some { allowed; forbidden } }

let sfence_frontier =
  (* under the buffered machine the sfence also pins the drain order:
     x's buffer entry is in an older fence epoch than y's, so it can
     never drain after it (outcome-invisible here, but exercised by the
     scheduler; the persist ordering is the fence-commit dependence) *)
  let allowed =
    [ one [ (px, 0); (py, 0) ]; one [ (px, 1); (py, 0) ];
      one [ (px, 1); (py, 1) ] ]
  in
  let forbidden = [ one [ (px, 0); (py, 1) ] ] in
  { name = "sfence-frontier";
    doc = "the fence is a persistence-buffer frontier: flushes before it \
           drain before flushes after it";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); Flush "x"; Sfence; St ("y", 1); Flush "y" ] ];
    observe = [ px; py ];
    sc = { allowed; forbidden };
    tso = { allowed; forbidden };
    (* same-thread ordering: the fence is a buffer *frontier*, so the
       flush-before-fence-before-persist chain survives asynchronous
       drains — the buffered sets are exactly the synchronous ones *)
    tso_buf = Some { allowed; forbidden } }

let same_line_flush_fifo =
  let allowed =
    [ one [ (px, 0); (py, 0) ]; one [ (px, 1); (py, 0) ];
      one [ (px, 2); (py, 0) ]; one [ (px, 2); (py, 1) ] ]
  in
  let forbidden = [ one [ (px, 0); (py, 1) ]; one [ (px, 1); (py, 1) ] ] in
  { name = "same-line-flush-fifo";
    doc = "two flushes of one line queue in FIFO order; the fence covers \
           both captures";
    vars = [ "x"; "y" ];
    threads =
      [ [ St ("x", 1); Flush "x"; St ("x", 2); Flush "x"; Sfence;
          St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed; forbidden };
    tso = { allowed; forbidden };
    (* same-thread ordering: the fence is a buffer *frontier*, so the
       flush-before-fence-before-persist chain survives asynchronous
       drains — the buffered sets are exactly the synchronous ones *)
    tso_buf = Some { allowed; forbidden } }

let cross_thread_flush_async =
  let weak = one [ (r0_1, 1); (px, 0); (py, 1) ] in
  let all = outcomes [ (r0_1, [ 0; 1 ]); (px, [ 0; 1 ]); (py, [ 0; 1 ]) ] in
  { name = "cross-thread-flush-async";
    doc = "flush+sfence, then publish: the reader's persist waits for the \
           flushed line only under synchronous Px86";
    vars = [ "x"; "y"; "z" ];
    threads =
      [ [ St ("x", 1); Flush "x"; Sfence; St ("z", 1) ];
        [ Ld ("z", "r0"); St ("y", 1) ] ];
    observe = [ r0_1; px; py ];
    sc = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso_buf = Some { allowed = all; forbidden = [] } }

let clwb_async =
  let weak = one [ (r0_1, 1); (px, 0); (py, 1) ] in
  let all = outcomes [ (r0_1, [ 0; 1 ]); (px, [ 0; 1 ]); (py, [ 0; 1 ]) ] in
  { name = "clwb-async";
    doc = "clwb shows the same sync-vs-buffered split as clflushopt";
    vars = [ "x"; "y"; "z" ];
    threads =
      [ [ St ("x", 1); Clwb "x"; Sfence; St ("z", 1) ];
        [ Ld ("z", "r0"); St ("y", 1) ] ];
    observe = [ r0_1; px; py ];
    sc = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso_buf = Some { allowed = all; forbidden = [] } }

let rmw_fence =
  let allowed =
    [ one [ (px, 0); (py, 0) ]; one [ (px, 1); (py, 0) ];
      one [ (px, 1); (py, 1) ] ]
  in
  let forbidden = [ one [ (px, 0); (py, 1) ] ] in
  { name = "rmw-fence";
    doc = "a locked RMW commits pending flushes like sfence (contrast \
           flush-no-sfence, where nothing orders the persist)";
    vars = [ "x"; "y"; "z" ];
    threads = [ [ St ("x", 1); Flush "x"; Rmwi "z"; St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed; forbidden };
    tso = { allowed; forbidden };
    (* same-thread ordering: the fence is a buffer *frontier*, so the
       flush-before-fence-before-persist chain survives asynchronous
       drains — the buffered sets are exactly the synchronous ones *)
    tso_buf = Some { allowed; forbidden } }

let rmw_fence_async =
  let weak = one [ (r0_1, 1); (px, 0); (py, 1) ] in
  let all = outcomes [ (r0_1, [ 0; 1 ]); (px, [ 0; 1 ]); (py, [ 0; 1 ]) ] in
  { name = "rmw-fence-async";
    doc = "RMW-as-fence publishes the flag itself: synchronous Px86 \
           drains the flush first, buffered Px86 may not";
    vars = [ "x"; "y"; "z" ];
    threads =
      [ [ St ("x", 1); Flush "x"; Rmwi "z" ];
        [ Ld ("z", "r0"); St ("y", 1) ] ];
    observe = [ r0_1; px; py ];
    sc = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso = { allowed = minus all [ weak ]; forbidden = [ weak ] };
    tso_buf = Some { allowed = all; forbidden = [] } }

let flush_pbarrier =
  (* must declare exactly the sets of [flush_sfence]: the paper's epoch
     barrier subsumes the fence's flush commit on every machine
     configuration (test_litmus asserts the set equality) *)
  { name = "flush+pbarrier";
    doc = "the epoch barrier commits a pending flush exactly like sfence";
    vars = [ "x"; "y" ];
    threads = [ [ St ("x", 1); Flush "x"; Pbarrier; St ("y", 1) ] ];
    observe = [ px; py ];
    sc = { allowed = persist_ordered; forbidden = [ one [ (px, 0); (py, 1) ] ] };
    tso = { allowed = persist_ordered; forbidden = [ one [ (px, 0); (py, 1) ] ] };
    tso_buf =
      Some
        { allowed = persist_ordered;
          forbidden = [ one [ (px, 0); (py, 1) ] ] } }

let suite =
  [ sb;
    sb_mfence;
    sb_rfi;
    n6;
    mp;
    lb;
    w2plus2;
    corr;
    persist_unordered;
    flush_sfence;
    flush_no_sfence;
    clwb_sfence;
    sfence_no_flush;
    pbarrier_order;
    coherence_persist;
    cross_thread_flush;
    mp_flush_sfence;
    flush_captures_at_flush;
    sfence_frontier;
    same_line_flush_fifo;
    cross_thread_flush_async;
    clwb_async;
    rmw_fence;
    rmw_fence_async;
    flush_pbarrier ]

let find name = List.find_opt (fun t -> t.name = name) suite

(* Tests whose TSO allowed set strictly contains the SC one: the
   witnesses that the machine actually weakens the memory model. *)
let tso_weaker t =
  List.exists (fun o -> not (List.mem o t.sc.allowed)) t.tso.allowed

(* Tests whose TSO-buffered allowed set strictly contains the TSO-sync
   one: the witnesses that the persistence buffer actually weakens the
   persistency model. *)
let buffered_weaker t =
  match t.tso_buf with
  | None -> false
  | Some b -> List.exists (fun o -> not (List.mem o t.tso.allowed)) b.allowed
