module M = Memsim.Machine
module Om = Obs.Metrics

let m_batches = Om.counter Om.default "workload.kv_group.batches"
let m_puts = Om.counter Om.default "workload.kv_group.puts"
let m_gets = Om.counter Om.default "workload.kv_group.gets"
let m_probes = Om.counter Om.default "workload.kv_group.probes"

type discipline =
  | Strict_group
  | Epoch_group
  | Strand_group
  | Buggy_seal

type put = { key : int; value : int64 }

type layout = {
  table_addr : int;
  table_bytes : int;
  log_addr : int;
  log_bytes : int;
  marker_addr : int;
  groups : int;
  group_size : int;
  log_capacity : int;
  keys : int array;
  kgroups : int array;
}

type t = {
  discipline : discipline;
  layout : layout;
  machine : M.t;
  group_of : (int, int) Hashtbl.t;
  mutable next_rec : int;
  mutable committed : int;
  mutable batches_rev : put list list;
  mutable probes : int;
}

let slot_bytes = Kv.slot_bytes
let grec_bytes = 48

(* Full-record checksum.  In group commit all of a batch's record words
   share one epoch, so a per-record seal cannot be barrier-ordered after
   its fields the way Kv's per-op log seals are; instead every record
   carries a checksum over its position and all five payload words.  A
   torn record (any word missing) fails the check.  [logor 1L] keeps it
   provably non-zero, so an all-zero (never written) record can never
   pass. *)
let mix64 h x =
  let h = Int64.add h x in
  let h =
    Int64.mul
      (Int64.logxor h (Int64.shift_right_logical h 30))
      0xBF58476D1CE4E5B9L
  in
  let h =
    Int64.mul
      (Int64.logxor h (Int64.shift_right_logical h 27))
      0x94D049BB133111EBL
  in
  Int64.logxor h (Int64.shift_right_logical h 31)

let rec_check ~pos ~slot_index ~old_key ~old_value ~old_sum ~new_value =
  let h =
    List.fold_left mix64 0x9E3779B97F4A7C15L
      [ Int64.of_int (pos + 1);
        Int64.of_int slot_index;
        old_key;
        old_value;
        old_sum;
        new_value ]
  in
  Int64.logor h 1L

let create ?(policy = M.Round_robin) ?(group_size = 8) ?(seed = 42)
    ~discipline ~keys ~log_capacity ~sink () =
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let dedup = Hashtbl.create (max 16 n) in
  Array.iter
    (fun k ->
      if k < 1 then invalid_arg "Kv_group: keys must be >= 1";
      if Hashtbl.mem dedup k then invalid_arg "Kv_group: duplicate key";
      Hashtbl.add dedup k ())
    keys;
  if group_size < 2 then invalid_arg "Kv_group: group_size must be >= 2";
  let log_capacity = max 1 log_capacity in
  (* first-fit placement of the shard's keys, each hashed itself, in a
     table sized for <= 50% load, so an in-group probe always finds an
     empty slot *)
  let groups = max 1 (((2 * n) + group_size - 1) / group_size) in
  let kgroups =
    Kv.place_keys ~groups ~group_size n (fun i -> Kv.mix seed keys.(i))
  in
  let table_bytes = groups * group_size * slot_bytes in
  let log_bytes = log_capacity * grec_bytes in
  let memory =
    Memsim.Memory.create
      ~persistent_capacity:(table_bytes + log_bytes + 8 + 64)
      ~volatile_capacity:4096 ()
  in
  let machine = M.create ~policy ~memory () in
  M.set_sink machine sink;
  let table_addr =
    Memsim.Memory.alloc memory Memsim.Addr.Persistent table_bytes
  in
  let log_addr = Memsim.Memory.alloc memory Memsim.Addr.Persistent log_bytes in
  let marker_addr = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let layout =
    { table_addr;
      table_bytes;
      log_addr;
      log_bytes;
      marker_addr;
      groups;
      group_size;
      log_capacity;
      keys;
      kgroups }
  in
  let group_of = Hashtbl.create (max 16 n) in
  Array.iteri (fun i key -> Hashtbl.replace group_of key kgroups.(i)) keys;
  { discipline;
    layout;
    machine;
    group_of;
    next_rec = 0;
    committed = 0;
    batches_rev = [];
    probes = 0 }

let machine t = t.machine
let layout t = t.layout
let probes t = t.probes
let batches t = List.rev t.batches_rev

let group_of t key =
  match Hashtbl.find_opt t.group_of key with
  | Some g -> g
  | None -> invalid_arg "Kv_group: key not in this shard's key set"

(* Linear probe inside the key's bucket group, like [Kv.probe], plus
   [claimed], the slots taken by earlier puts of the {e same} batch:
   slot writes are deferred until after the record barrier, so the
   machine image alone cannot show in-batch insertions.  Returns the
   slot, its index, the probe length and the slot's key word as this
   batch sees it (loaded, or [key] for a slot claimed in the batch).
   Key-word loads are real machine events — the conflict levels they
   acquire are what the strand pre-record barrier in [exec_batch]
   commits. *)
let probe t claimed key =
  let key64 = Int64.of_int key in
  let g = group_of t key in
  let base = t.layout.table_addr + (g * t.layout.group_size * slot_bytes) in
  let rec go i =
    if i >= t.layout.group_size then assert false
    else begin
      let slot_index = (g * t.layout.group_size) + i in
      let slot = base + (i * slot_bytes) in
      match claimed slot_index with
      | Some k when k <> key -> go (i + 1)
      | Some _ -> (slot, slot_index, i + 1, key64)
      | None ->
        let k = M.load slot in
        if Int64.equal k 0L || Int64.equal k key64 then
          (slot, slot_index, i + 1, k)
        else go (i + 1)
    end
  in
  go 0

let observe_probe t plen =
  t.probes <- t.probes + plen;
  Om.add m_probes plen

(* Thread-context: must run inside a thread spawned on [machine t].

   One batch = [gets] served from the volatile table image, then all of
   [puts] committed atomically:

     records(all puts) -> barrier -> slots(all puts) -> barrier -> marker

   The single record->slot barrier pair is the whole point: ordering
   cost per put is ~2/batch epochs instead of 2 (Kv's per-op undo
   discipline).  The marker is the commit point — recovery rolls the
   table back to the marker's batch boundary.  [Buggy_seal] drops the
   slots->marker barrier, so a crash can persist the marker before the
   slots it covers: the recovered table would miss committed writes,
   which failure injection must catch. *)
let exec_batch t ~puts ~gets =
  M.label "batch";
  (match t.discipline with Strand_group -> M.new_strand () | _ -> ());
  List.iter
    (fun key ->
      M.label "get";
      let slot, _, plen, found = probe t (fun _ -> None) key in
      observe_probe t plen;
      if not (Int64.equal found 0L) then ignore (M.load (slot + 8));
      Om.incr m_gets)
    gets;
  if puts <> [] then begin
    let nputs = List.length puts in
    if t.next_rec + nputs > t.layout.log_capacity then
      invalid_arg "Kv_group: undo log capacity exceeded";
    M.label "put";
    let claims = Hashtbl.create (2 * nputs) in
    (* phase 0: probe and read the pre-batch image for every put (slot
       writes are deferred to phase B, so the old triples describe the
       previous batch boundary) *)
    let plan =
      List.map
        (fun { key; value } ->
          let slot, slot_index, plen, _ =
            probe t (Hashtbl.find_opt claims) key
          in
          Hashtbl.replace claims slot_index key;
          observe_probe t plen;
          (* the pre-batch key word: a slot claimed earlier in this
             batch was not loaded by the probe *)
          let old_key = M.load slot in
          let old_value = M.load (slot + 8) in
          let old_sum = M.load (slot + 16) in
          (key, value, slot, slot_index, old_key, old_value, old_sum))
        puts
    in
    (* Recovery's reverse replay needs: this batch's records durable =>
       the previous batches' writes to the probed slots durable (else an
       intact later record can resurrect an uncommitted earlier value
       into a slot torn by a still-earlier batch).  Epoch gives that for
       free — the thread's barrier view accumulates across batches — but
       a fresh strand starts from an empty view, so the conflict levels
       the probe loads acquired must be committed with a barrier before
       any record store. *)
    (match t.discipline with Strand_group -> M.persist_barrier () | _ -> ());
    (* phase A: undo records for the whole batch; reverse replay of the
       records rolls the whole batch back atomically *)
    let slots =
      List.map
        (fun (_, value, slot, slot_index, old_key, old_value, old_sum) ->
          let pos = t.next_rec in
          t.next_rec <- pos + 1;
          let rec_addr = t.layout.log_addr + (pos * grec_bytes) in
          M.store rec_addr (Int64.of_int slot_index);
          M.store (rec_addr + 8) old_key;
          M.store (rec_addr + 16) old_value;
          M.store (rec_addr + 24) old_sum;
          M.store (rec_addr + 32) value;
          M.store (rec_addr + 40)
            (rec_check ~pos ~slot_index ~old_key ~old_value ~old_sum
               ~new_value:value);
          slot)
        plan
    in
    (* records -> slots: no slot word may persist before the batch's
       complete undo records *)
    (match t.discipline with
    | Epoch_group | Strand_group | Buggy_seal -> M.persist_barrier ()
    | Strict_group -> ());
    (* phase B: the in-place slot updates *)
    List.iter2
      (fun { key; value } slot ->
        let key64 = Int64.of_int key in
        M.store slot key64;
        M.store (slot + 8) value;
        M.store (slot + 16) (Kv.slot_sum ~key:key64 ~value);
        Om.incr m_puts)
      puts slots;
    (* slots -> marker: the marker must not persist before the slots it
       claims are durable.  Dropping this is the deliberate Buggy_seal
       hole. *)
    (match t.discipline with
    | Epoch_group | Strand_group -> M.persist_barrier ()
    | Strict_group | Buggy_seal -> ());
    t.committed <- t.committed + 1;
    t.batches_rev <- puts :: t.batches_rev;
    M.store t.layout.marker_addr (Int64.of_int t.committed)
  end;
  Om.incr m_batches

let run_batches t batches =
  ignore
    (M.spawn t.machine (fun () ->
         List.iter (fun (puts, gets) -> exec_batch t ~puts ~gets) batches));
  M.run t.machine
