module Ps = Persistency
module E = Memsim.Event
module Om = Obs.Metrics

let m_checks = Om.counter Om.default "dlin.checks"
let m_violations = Om.counter Om.default "dlin.violations"

type effect_ =
  | Add of { key : int }
  | Put of { key : int; value : int64 }
  | Enq of { etid : int; eseq : int }
  | Read

type op = {
  tid : int;
  index : int;
  label : string;
  start_ : int;
  finish : int;
  persists : Ps.Iset.t;
  effect_ : effect_;
}

type klass =
  | Required
  | Optional
  | Excluded

let classify ~cut op =
  if Ps.Iset.is_empty op.persists then Excluded
  else if Ps.Iset.subset op.persists cut then Required
  else if Ps.Iset.disjoint op.persists cut then Excluded
  else Optional

(* Real-time precedence: [a] returned before [b] was invoked. *)
let rt_before a b = a.finish < b.start_

module History = struct
  type open_op = {
    o_tid : int;
    o_index : int;
    o_label : string;
    o_start : int;
    mutable o_finish : int;
    mutable o_pevents : int list;  (* persist-event ordinals, reversed *)
  }

  (* Per-thread state is indexed by tid: [current.(tid)] is the
     thread's open operation ([none] when it has none) and
     [counts.(tid)] its operations so far.  Both grow on a [Label]. *)
  type t = {
    mutable events : int;
    mutable pevents : int;
    mutable current : open_op array;
    mutable counts : int array;
    mutable closed : open_op list;
  }

  let none =
    { o_tid = -1; o_index = -1; o_label = ""; o_start = -1; o_finish = -1;
      o_pevents = [] }

  let create () =
    { events = 0;
      pevents = 0;
      current = Array.make 4 none;
      counts = Array.make 4 0;
      closed = [] }

  let open_op t tid =
    if tid >= 0 && tid < Array.length t.current then t.current.(tid) else none

  let close t tid =
    let o = open_op t tid in
    if o != none then begin
      t.current.(tid) <- none;
      t.closed <- o :: t.closed
    end

  let observe t ev =
    let idx = t.events in
    t.events <- idx + 1;
    match ev with
    | E.Label (tid, label) ->
      close t tid;
      t.current <- Memsim.Vec.grow_array t.current (tid + 1) none;
      t.counts <- Memsim.Vec.grow_array t.counts (tid + 1) 0;
      let index = t.counts.(tid) in
      t.counts.(tid) <- index + 1;
      t.current.(tid) <-
        { o_tid = tid;
          o_index = index;
          o_label = label;
          o_start = idx;
          o_finish = idx;
          o_pevents = [] }
    | _ ->
      let persist = E.is_persist ev in
      let o = open_op t (E.tid ev) in
      if o != none then begin
        o.o_finish <- idx;
        if persist then o.o_pevents <- t.pevents :: o.o_pevents
      end;
      if persist then t.pevents <- t.pevents + 1

  let sink t next ev =
    observe t ev;
    next ev

  let ops t ~node_of_persist ~effect_of =
    for tid = 0 to Array.length t.current - 1 do
      close t tid
    done;
    let finish o =
      let persists =
        List.fold_left
          (fun acc pe -> Ps.Iset.add (node_of_persist pe) acc)
          Ps.Iset.empty o.o_pevents
      in
      { tid = o.o_tid;
        index = o.o_index;
        label = o.o_label;
        start_ = o.o_start;
        finish = o.o_finish;
        persists;
        effect_ = effect_of ~tid:o.o_tid ~index:o.o_index }
    in
    List.sort
      (fun a b -> compare a.start_ b.start_)
      (List.map finish t.closed)
end

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let counted result =
  Om.incr m_checks;
  (match result with Error _ -> Om.incr m_violations | Ok () -> ());
  result

(* Durable linearizability for the insert-only set: the disciplines
   under test persist the destination window before the linearizing
   CAS, which makes every published node's reachability chain
   down-closed — so an insert whose persists are all durable must be
   visible after recovery, and a visible key must come from an insert
   with at least one durable persist.  Cross-op real-time closure is
   deliberately not required: under epoch persistency persists are
   asynchronous, so an unrelated completed insert may round down
   (buffered durable linearizability). *)
let check_set ~ops ~cut ~recovered =
  counted
  @@
  let adds =
    List.filter_map
      (fun op ->
        match op.effect_ with
        | Add { key } -> Some (key, op, classify ~cut op)
        | Put _ | Enq _ | Read -> None)
      ops
  in
  let visible = List.sort_uniq compare recovered in
  if List.length visible <> List.length recovered then
    fail "recovered set repeats a key"
  else
    let lost =
      List.find_opt
        (fun (key, _, k) -> k = Required && not (List.mem key visible))
        adds
    in
    match lost with
    | Some (key, op, _) ->
      fail
        "durable linearizability violated: insert of key %d by thread %d \
         completed (all %d persists durable) but the key is unreachable"
        key op.tid
        (Ps.Iset.cardinal op.persists)
    | None -> (
      let resurrected =
        List.find_opt
          (fun key ->
            not
              (List.exists (fun (k, _, kl) -> k = key && kl <> Excluded) adds))
          visible
      in
      match resurrected with
      | Some key ->
        fail
          "durable linearizability violated: key %d recovered but no insert \
           of it has any durable persist"
          key
      | None -> Ok ())

(* Durable linearizability for the per-key map: puts to one key are
   serialized (per-group locks), so the recovered binding must come
   from some put with a durable persist that was not {e real-time
   superseded} — a put that returned before another fully durable put
   to the same key was invoked must lose to it in every linearization.
   Overlapping puts may serialize in either order regardless of which
   started first, so only {!rt_before} supersession is a violation.  A
   key with a fully durable put must be bound. *)
let check_map ~ops ~cut ~recovered =
  counted
  @@
  let puts =
    List.filter_map
      (fun op ->
        match op.effect_ with
        | Put { key; value } -> Some (key, value, op, classify ~cut op)
        | Add _ | Enq _ | Read -> None)
      ops
  in
  let keys =
    List.sort_uniq compare (List.map (fun (k, _, _, _) -> k) puts)
  in
  let rec check_keys = function
    | [] -> Ok ()
    | key :: rest -> (
      let kputs = List.filter (fun (k, _, _, _) -> k = key) puts in
      let required_put =
        List.find_map
          (fun (_, _, op, kl) -> if kl = Required then Some op else None)
          kputs
      in
      match List.assoc_opt key recovered with
      | None -> (
        match required_put with
        | Some op ->
          fail
            "durable linearizability violated: put of key %d by thread %d \
             completed (all persists durable) but the key is unbound"
            key op.tid
        | None -> check_keys rest)
      | Some v ->
        let superseded op =
          List.exists
            (fun (_, _, r, kl) -> kl = Required && rt_before op r)
            kputs
        in
        let candidate (_, value, op, kl) =
          value = v && kl <> Excluded && not (superseded op)
        in
        if List.exists candidate kputs then check_keys rest
        else if
          List.exists
            (fun (_, value, _, kl) -> value = v && kl = Excluded)
            kputs
        then
          fail
            "durable linearizability violated: key %d recovered value %Ld \
             from a put with no durable persist"
            key v
        else if List.exists (fun (_, value, _, _) -> value = v) kputs then
          fail
            "durable linearizability violated: key %d recovered stale value \
             %Ld, superseded by a fully durable later put"
            key v
        else
          fail "recovered binding %d -> %Ld was never written" key v)
  in
  check_keys keys

(* Durable linearizability for the queue: recovered entries are the
   committed prefix, in commit order.  Lock-serialized commits give a
   total order, so the visible entries must respect real time, come
   from inserts with at least one durable persist, and be closed under
   real-time precedence — an insert that finished before a visible
   entry's insert began must itself be visible. *)
let check_fifo ~ops ~cut ~recovered =
  counted
  @@
  let enqs =
    List.filter_map
      (fun op ->
        match op.effect_ with
        | Enq { etid; eseq } -> Some ((etid, eseq), op, classify ~cut op)
        | Add _ | Put _ | Read -> None)
      ops
  in
  let find id = List.find_opt (fun (eid, _, _) -> eid = id) enqs in
  let rec scan max_start = function
    | [] -> Ok ()
    | id :: rest -> (
      match find id with
      | None -> fail "recovered entry (%d, %d) matches no insert" (fst id) (snd id)
      | Some (_, op, kl) ->
        if kl = Excluded then
          fail
            "durable linearizability violated: entry (%d, %d) recovered but \
             its insert has no durable persist"
            (fst id) (snd id)
        else if op.finish < max_start then
          fail
            "durable linearizability violated: entry (%d, %d) recovered \
             behind an insert that began after it finished"
            (fst id) (snd id)
        else scan (max max_start op.start_) rest)
  in
  match scan (-1) recovered with
  | Error _ as e -> e
  | Ok () -> (
    (* closure under real-time precedence: any insert that finished
       before some visible entry's insert began must be visible too *)
    let latest_start =
      List.fold_left
        (fun acc id ->
          match find id with
          | Some (_, op, _) -> max acc op.start_
          | None -> acc)
        (-1) recovered
    in
    match
      List.find_opt
        (fun (id, op, _) ->
          op.finish < latest_start && not (List.mem id recovered))
        enqs
    with
    | Some ((t, s), _, _) ->
      fail
        "durable linearizability violated: insert (%d, %d) finished before \
         a recovered entry began but was lost"
        t s
    | None -> Ok ())

(* Reference checker for hand-built histories: search for a subset of
   operations — all fully durable ops, any partially durable ones,
   no undurable ones — that is closed under real-time precedence and
   admits a linearization (respecting real time) whose final abstract
   state equals the recovered one.  Exponential; meant for unit-test
   sized histories. *)
let check_linearization ~ops ~cut ~init ~apply ~equal ~recovered =
  counted
  @@
  let effectful = List.filter (fun op -> op.effect_ <> Read) ops in
  let classed = List.map (fun op -> (op, classify ~cut op)) effectful in
  let required = List.filter (fun (_, k) -> k = Required) classed in
  let optional = List.filter (fun (_, k) -> k = Optional) classed in
  if List.length effectful > 12 then
    invalid_arg "Dlin.check_linearization: history too large";
  let rec subsets = function
    | [] -> [ [] ]
    | (op, _) :: rest ->
      let tails = subsets rest in
      tails @ List.map (fun s -> op :: s) tails
  in
  let prefix_closed s =
    List.for_all
      (fun b ->
        List.for_all
          (fun (a, _) -> (not (rt_before a b)) || List.memq a s)
          classed)
      s
  in
  (* DFS over linearizations of [s] respecting real-time order. *)
  let rec linearize state remaining =
    match remaining with
    | [] -> equal state recovered
    | _ ->
      List.exists
        (fun op ->
          let rest = List.filter (fun o -> o != op) remaining in
          if List.exists (fun o -> rt_before o op) rest then false
          else linearize (apply state op) rest)
        remaining
  in
  let explains subset =
    let s = List.map fst required @ subset in
    prefix_closed s && linearize init s
  in
  if List.exists explains (subsets optional) then Ok ()
  else
    fail
      "no durable linearization explains the recovered state (%d required, \
       %d optional ops)"
      (List.length required) (List.length optional)
