module Event = Memsim.Event
module Trace = Memsim.Trace

type t = {
  n : int;
  dag : Dag.t;  (* over trace event indices *)
  persists : int list;  (* trace indices of persist events, in order *)
  reach : (int, bool array) Hashtbl.t;  (* memoized reachability *)
}

let is_store_kind = function
  | Event.Store | Event.Rmw -> true
  | Event.Load -> false

let is_load_kind = function
  | Event.Load | Event.Rmw -> true
  | Event.Store -> false

type thread_ctx = {
  mutable cur : int list;  (* accesses since the last in-strand barrier *)
  mutable last_barrier : int option;
  mutable last_access : int option;  (* for strict/SC program order *)
  mutable all : (int * Event.kind option) list;
      (* strict/TSO pairwise ordering; [None] marks a fence *)
  mutable flushes : int list;
      (* Px86 (epoch/strand): flush events since the last fence *)
  mutable last_fence : int option;
      (* Px86 (epoch/strand): the last sfence/mfence, which orders the
         flushes it committed before the thread's later accesses *)
  mutable committed : int list;
      (* Px86 (epoch/strand): flushes committed by a locked RMW
         (RMW-as-fence).  Unlike a fence they order only the thread's
         later accesses, not the RMW's own persist, so they stay edges
         from the flush events until a real fence subsumes them. *)
}

(* How same-thread events order persists:
   - strict/SC: total program order (chain suffices);
   - strict/TSO: every pair except pure-store -> pure-load;
   - strict/RMO, epoch, strand: fence/barrier separation only. *)
type discipline =
  | Chain_all
  | Pairwise_tso
  | Fence_chained

let discipline (cfg : Config.t) =
  match cfg.Config.mode, cfg.Config.consistency with
  | Config.Strict, Config.Sc -> Chain_all
  | Config.Strict, Config.Tso -> Pairwise_tso
  | Config.Strict, Config.Rmo -> Fence_chained
  | (Config.Epoch | Config.Strand), _ -> Fence_chained

let build (cfg : Config.t) trace =
  let n = Trace.length trace in
  (* [preds.(i)]: the events ordered before event [i], each edge found
     as [i] is reached; the DAG is built once at the end *)
  let preds = Array.make n [] in
  let edge j i = preds.(i) <- j :: preds.(i) in
  let threads : (int, thread_ctx) Hashtbl.t = Hashtbl.create 8 in
  let ctx tid =
    match Hashtbl.find_opt threads tid with
    | Some c -> c
    | None ->
      let c =
        { cur = [];
          last_barrier = None;
          last_access = None;
          all = [];
          flushes = [];
          last_fence = None;
          committed = [] }
      in
      Hashtbl.add threads tid c;
      c
  in
  let disc = discipline cfg in
  (* tracked block -> prior accesses (trace index, kind, space) *)
  let blocks : (int, (int * Event.kind * Memsim.Addr.space) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let persists = ref [] in
  for i = 0 to n - 1 do
    match Trace.get trace i with
    | Event.Access (kind, a) ->
      if Event.is_persist (Event.Access (kind, a)) then persists := i :: !persists;
      let c = ctx a.tid in
      (* A locked RMW commits the pending flushes like sfence
         (Px86 RMW-as-fence, mirroring [Engine]): the captures are
         ordered before the RMW and the thread's later accesses. *)
      (match kind, cfg.Config.mode with
      | Event.Rmw, (Config.Epoch | Config.Strand) ->
        c.committed <- c.flushes @ c.committed;
        c.flushes <- []
      | (Event.Rmw | Event.Load | Event.Store), _ -> ());
      (* Rule 1: same-thread ordering. *)
      (match disc with
      | Chain_all ->
        (match c.last_access with
        | Some p -> edge p i
        | None -> ());
        c.last_access <- Some i
      | Pairwise_tso ->
        List.iter
          (fun (j, kj) ->
            let ordered =
              match kj, kind with
              | Some Event.Store, Event.Load -> false  (* st -> ld drifts *)
              | (Some _ | None), _ -> true
            in
            if ordered then edge j i)
          c.all;
        c.all <- (i, Some kind) :: c.all
      | Fence_chained ->
        (match c.last_barrier with
        | Some b -> edge b i
        | None -> ());
        (match c.last_fence with
        | Some f -> edge f i
        | None -> ());
        List.iter (fun f -> edge f i) c.committed;
        c.cur <- i :: c.cur);
      (* Rule 2: conflicting accesses in trace (SC) order. *)
      let conflicts_tracked =
        (not cfg.Config.persistent_only_conflicts)
        || Memsim.Addr.equal_space a.space Memsim.Addr.Persistent
      in
      if conflicts_tracked then begin
        let b = Memsim.Addr.block ~gran:cfg.Config.track_gran a.addr in
        let prior =
          match Hashtbl.find_opt blocks b with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add blocks b r;
            r
        in
        List.iter
          (fun (j, kj, _space) ->
            let conflict = is_store_kind kj || is_store_kind kind in
            let missed_by_tso =
              cfg.Config.tso_conflicts
              && (not (is_store_kind kj))
              && is_load_kind kj && is_store_kind kind
            in
            if conflict && not missed_by_tso then edge j i)
          !prior;
        prior := (i, kind, a.space) :: !prior
      end
    | Event.Persist_barrier { tid; _ } ->
      (match disc with
      | Fence_chained ->
        let c = ctx tid in
        List.iter (fun e -> edge e i) c.cur;
        (* the epoch barrier subsumes a fence: pending flushes commit *)
        List.iter (fun f -> edge f i) c.flushes;
        List.iter (fun f -> edge f i) c.committed;
        (match c.last_barrier with
        | Some b -> edge b i
        | None -> ());
        c.last_barrier <- Some i;
        c.cur <- [];
        c.flushes <- [];
        c.committed <- []
      | Pairwise_tso ->
        let c = ctx tid in
        List.iter (fun (j, _) -> edge j i) c.all;
        c.all <- (i, None) :: c.all
      | Chain_all -> ())
    | Event.New_strand { tid; _ } ->
      (match cfg.Config.mode with
      | Config.Strand ->
        let c = ctx tid in
        c.last_barrier <- None;
        c.cur <- [];
        c.flushes <- [];
        c.last_fence <- None;
        c.committed <- []
      | Config.Strict | Config.Epoch -> ())
    | Event.Flush { tid; addr; _ } ->
      (* Px86 writeback request: ordered after the stores that produced
         the flushed line's contents (any thread), before the next
         fence.  Under strict persistency the volatile order already
         orders persists, so the flush is a no-op. *)
      (match cfg.Config.mode with
      | Config.Epoch | Config.Strand ->
        let c = ctx tid in
        let b = Memsim.Addr.block ~gran:cfg.Config.track_gran addr in
        (match Hashtbl.find_opt blocks b with
        | Some prior ->
          List.iter
            (fun (j, kj, _space) ->
              if is_store_kind kj then edge j i)
            !prior
        | None -> ());
        c.flushes <- i :: c.flushes
      | Config.Strict -> ())
    | Event.Fence { tid; _ } ->
      (match cfg.Config.mode with
      | Config.Epoch | Config.Strand ->
        (* commit the pending flushes: later accesses of this thread
           (Rule 1's [last_fence] edge) are ordered after them *)
        let c = ctx tid in
        List.iter (fun f -> edge f i) c.flushes;
        List.iter (fun f -> edge f i) c.committed;
        (match c.last_barrier with
        | Some b -> edge b i
        | None -> ());
        (match c.last_fence with
        | Some f -> edge f i
        | None -> ());
        c.flushes <- [];
        c.committed <- [];
        c.last_fence <- Some i
      | Config.Strict ->
        (* the fence doubles as the consistency fence, exactly like a
           persist barrier under strict persistency *)
        (match disc with
        | Fence_chained ->
          let c = ctx tid in
          List.iter (fun e -> edge e i) c.cur;
          (match c.last_barrier with
          | Some b -> edge b i
          | None -> ());
          c.last_barrier <- Some i;
          c.cur <- []
        | Pairwise_tso ->
          let c = ctx tid in
          List.iter (fun (j, _) -> edge j i) c.all;
          c.all <- (i, None) :: c.all
        | Chain_all -> ()))
    | Event.Pdrain _ ->
      (* persistence-buffer drains affect durability (crash cuts), not
         the required persist order the oracle validates *)
      ()
    | Event.Label _ -> ()
  done;
  { n;
    dag = Dag.of_preds (Array.map Array.of_list preds);
    persists = List.rev !persists;
    reach = Hashtbl.create 64 }

let reach t i =
  match Hashtbl.find_opt t.reach i with
  | Some r -> r
  | None ->
    let r = Dag.reachable_from t.dag i in
    Hashtbl.add t.reach i r;
    r

(* Trace indices [i < j]: persistent memory order requires event [i]'s
   persist before event [j]'s. *)
let required_ordered t i j = i <> j && (reach t i).(j)

let critical_path t =
  let persists = Array.of_list t.persists in
  let p = Array.length persists in
  let lvl = Array.make p 0 in
  let best = ref 0 in
  for j = 0 to p - 1 do
    let d = ref 0 in
    for i = 0 to j - 1 do
      if lvl.(i) > !d && required_ordered t persists.(i) persists.(j) then
        d := lvl.(i)
    done;
    lvl.(j) <- !d + 1;
    if lvl.(j) > !best then best := lvl.(j)
  done;
  !best

let verify_engine (cfg : Config.t) trace =
  let cfg = { cfg with Config.record_graph = true } in
  let engine = Engine.create cfg in
  Engine.observe_trace engine trace;
  let graph =
    match Engine.graph engine with
    | Some g -> g
    | None -> assert false
  in
  let oracle = build cfg trace in
  let gdag = Persist_graph.dag graph in
  let persist_idx = Array.of_list oracle.persists in
  let p = Array.length persist_idx in
  let node_of k = Engine.node_of_persist_event engine k in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Dag.has_cycle gdag then err "persist graph is cyclic"
  else begin
    (* A level is 1 + the deepest dependence's level (1 with none): the
       longest dependence chain ending at the node. *)
    let level_violation = ref None in
    Persist_graph.iter
      (fun node ->
        let below =
          Iset.fold
            (fun dep l -> max l (Persist_graph.get graph dep).Persist_graph.level)
            node.Persist_graph.deps 0
        in
        if node.Persist_graph.level <> below + 1 && !level_violation = None
        then
          level_violation :=
            Some
              (Printf.sprintf
                 "node %d has level %d, not 1 + its deepest dependence's %d"
                 node.Persist_graph.id node.Persist_graph.level below))
      graph;
    match !level_violation with
    | Some msg -> Error msg
    | None ->
      (* Every ordered pair of persist events must share a node or be
         connected with increasing levels. *)
      let greach = Hashtbl.create 64 in
      let node_reach n =
        match Hashtbl.find_opt greach n with
        | Some r -> r
        | None ->
          let r = Dag.reachable_from gdag n in
          Hashtbl.add greach n r;
          r
      in
      let violation = ref None in
      (try
         for ki = 0 to p - 1 do
           for kj = ki + 1 to p - 1 do
             if required_ordered oracle persist_idx.(ki) persist_idx.(kj) then begin
               let ni = node_of ki and nj = node_of kj in
               if ni <> nj then begin
                 let li = (Persist_graph.get graph ni).Persist_graph.level in
                 let lj = (Persist_graph.get graph nj).Persist_graph.level in
                 if not (node_reach ni).(nj) then begin
                   violation :=
                     Some
                       (Printf.sprintf
                          "persist events %d -> %d required ordered but nodes %d, %d unconnected"
                          persist_idx.(ki) persist_idx.(kj) ni nj);
                   raise Exit
                 end
                 else if li >= lj then begin
                   violation :=
                     Some
                       (Printf.sprintf
                          "persist events %d -> %d ordered but levels %d >= %d"
                          persist_idx.(ki) persist_idx.(kj) li lj);
                   raise Exit
                 end
               end
             end
           done
         done
       with Exit -> ());
      (match !violation with
      | Some msg -> Error msg
      | None -> Ok ())
  end
