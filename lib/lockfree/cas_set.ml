module M = Memsim.Machine
module Om = Obs.Metrics

let m_runs = Om.counter Om.default "workload.lockfree.runs"
let m_inserts = Om.counter Om.default "workload.lockfree.inserts"
let m_events = Om.counter Om.default "workload.lockfree.events"
let m_retries = Om.counter Om.default "workload.lockfree.cas_retries"

type discipline =
  | Flush_all
  | Nvtraverse
  | Buggy_traverse

type params = {
  discipline : discipline;
  threads : int;
  inserts_per_thread : int;
  key_space : int;
  seed : int;
  policy : M.policy;
  machine : M.model;
  persistence : M.persistence;
}

let explore_params ?(threads = 2) ?(depth = 2) ?(machine = M.Sc)
    ?(persistence = M.Psync) discipline =
  { discipline;
    threads;
    inserts_per_thread = depth;
    key_space = 2 * threads * depth;
    seed = 1;
    policy = M.Round_robin;
    machine;
    persistence }

let discipline_name = function
  | Flush_all -> "flush-all"
  | Nvtraverse -> "nvtraverse"
  | Buggy_traverse -> "buggy-traverse"

let validate p =
  if p.threads < 1 then invalid_arg "Cas_set: threads must be >= 1";
  if p.inserts_per_thread < 1 then
    invalid_arg "Cas_set: inserts_per_thread must be >= 1";
  if p.key_space < p.threads * p.inserts_per_thread then
    invalid_arg "Cas_set: key_space must be >= threads * inserts_per_thread"

type layout = {
  head_addr : int;
  nodes_addr : int;
  node_bytes : int;
  total : int;
}

type result = {
  layout : layout;
  inserts : int;
  events : int;
  keys : int array;
}

let node_bytes = 16
let node_addr layout i = layout.nodes_addr + (i * layout.node_bytes)

(* SplitMix64 finalizer — the seeded shuffle behind the key schedule. *)
let mix seed i =
  let open Int64 in
  let z = add (of_int seed) (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Distinct keys, a pure function of params: global insert index
   [tid * inserts_per_thread + seq] gets the i-th key of a seeded
   shuffle of [1, key_space].  Purity is what lets the recovery
   decoder re-derive every node's expected key from params alone. *)
let keys_for p =
  let total = p.threads * p.inserts_per_thread in
  let all = Array.init p.key_space (fun i -> (mix p.seed (i + 1), i + 1)) in
  Array.sort compare all;
  Array.init total (fun i -> snd all.(i))

(* Insert [key] into the sorted linked list.  The traversal walks link
   words ([head] or a node's next field) until the successor's key is
   >= key, then publishes the pooled node with a CAS on the link.

   Persistence disciplines:
   - [Flush_all]: clflushopt every link word walked, plus the new
     node, all fenced before the CAS — persists the whole journey.
   - [Nvtraverse]: walk flush-free; before the linearizing CAS persist
     only the destination window — the new node's fields, the link
     being CASed (covers the successor's publisher) and the link that
     was followed to reach it (covers the predecessor's publisher).
     Per NVTraverse, that window is exactly what makes the published
     node's reachability chain durable-closed.
   - [Buggy_traverse]: skip the pre-CAS destination flush entirely, so
     a crash can persist the CAS while the node's fields or the chain
     that reaches it are still volatile.

   All disciplines persist the CASed link and fence after a successful
   CAS (the operation's durability point). *)
let insert p layout ~gidx ~key =
  let node = node_addr layout gidx in
  M.label "insert";
  M.store (node + 8) (Int64.of_int key);
  let rec attempt () =
    let rec find ~in_link link =
      let succ = Int64.to_int (M.load link) in
      (* Flush-all persists every word it reads, and must do so AFTER
         the read: the flush captures the block's current persist
         level, which then covers the publisher of the pointer just
         loaded (flushing first would capture the pre-publication
         value and leave the CAS without a dependence on the chain it
         traversed). *)
      (match p.discipline with
      | Flush_all -> M.clflushopt link
      | Nvtraverse | Buggy_traverse -> ());
      if succ = 0 then (in_link, link, succ)
      else begin
        let skey = Int64.to_int (M.load (succ + 8)) in
        (match p.discipline with
        | Flush_all -> M.clflushopt (succ + 8)
        | Nvtraverse | Buggy_traverse -> ());
        if skey < key then find ~in_link:link (succ + 0)
        else (in_link, link, succ)
      end
    in
    let in_link, link, succ = find ~in_link:(-1) layout.head_addr in
    M.store (node + 0) (Int64.of_int succ);
    (match p.discipline with
    | Flush_all ->
      M.clflushopt (node + 0);
      M.clflushopt (node + 8);
      M.sfence ()
    | Nvtraverse ->
      M.clflushopt (node + 0);
      M.clflushopt (node + 8);
      M.clflushopt link;
      if in_link >= 0 then M.clflushopt in_link;
      M.sfence ()
    | Buggy_traverse -> ());
    let old =
      M.rmw link (fun v ->
          if Int64.to_int v = succ then Int64.of_int node else v)
    in
    if Int64.to_int old = succ then begin
      M.clflushopt link;
      M.sfence ()
    end
    else begin
      Om.incr m_retries;
      attempt ()
    end
  in
  attempt ()

let image_capacity layout = layout.nodes_addr + (layout.total * layout.node_bytes)

let run p ~sink =
  validate p;
  let total = p.threads * p.inserts_per_thread in
  let pool_bytes = total * node_bytes in
  let memory =
    Memsim.Memory.create
      ~persistent_capacity:(pool_bytes + 64)
      ~volatile_capacity:(4096 + (32 * p.threads))
      ()
  in
  let machine =
    M.create ~policy:p.policy ~model:p.machine ~persistence:p.persistence
      ~memory ()
  in
  M.set_sink machine sink;
  let head_addr = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let nodes_addr = Memsim.Memory.alloc memory Memsim.Addr.Persistent pool_bytes in
  let layout = { head_addr; nodes_addr; node_bytes; total } in
  let keys = keys_for p in
  for tid = 0 to p.threads - 1 do
    ignore
      (M.spawn machine (fun () ->
           for seq = 0 to p.inserts_per_thread - 1 do
             let gidx = (tid * p.inserts_per_thread) + seq in
             insert p layout ~gidx ~key:keys.(gidx)
           done))
  done;
  M.run machine;
  Om.incr m_runs;
  Om.add m_inserts total;
  Om.add m_events (M.event_count machine);
  { layout; inserts = total; events = M.event_count machine; keys }
