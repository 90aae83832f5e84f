module M = Memsim.Machine
module Om = Obs.Metrics

let m_runs = Om.counter Om.default "workload.kv.runs"
let m_puts = Om.counter Om.default "workload.kv.puts"
let m_gets = Om.counter Om.default "workload.kv.gets"
let m_probes = Om.counter Om.default "workload.kv.probes"
let m_log_appends = Om.counter Om.default "workload.kv.log_appends"
let m_events = Om.counter Om.default "workload.kv.events"

let m_probe_len =
  Om.histogram Om.default ~buckets:(Om.pow2_buckets 7) "workload.kv.probe_len"

type discipline =
  | Strict_stores
  | Epoch_undo
  | Strand_ops
  | Buggy_undo

type params = {
  discipline : discipline;
  threads : int;
  ops_per_thread : int;
  get_every : int;
  key_space : int;
  groups : int;
  group_size : int;
  seed : int;
  policy : M.policy;
  dist : Workloads.Keygen.dist;
  machine : M.model;
  persistence : M.persistence;
  barrier : M.barrier_impl;
}

type layout = {
  table_addr : int;
  table_bytes : int;
  log_addr : int;
  log_bytes : int;
  groups : int;
  group_size : int;
  log_capacity : int;
}

type result = {
  layout : layout;
  puts : int;
  gets : int;
  probes : int;
  events : int;
}

let slot_bytes = 24
let rec_bytes = 40

let discipline_name = function
  | Strict_stores -> "strict-stores"
  | Epoch_undo -> "epoch-undo"
  | Strand_ops -> "strand-ops"
  | Buggy_undo -> "buggy-undo"

(* Barrier and new-strand call sites: a strand at the top of each put
   and get, and the two barriers of a put's undo protocol.  A discipline
   is the set of sites it enables. *)
let put_strand = M.site "put-strand"
let get_strand = M.site "get-strand"
let fields_seal = M.site "fields-seal"
let seal_slot = M.site "seal-slot"

let sites = function
  | Strict_stores -> []
  | Epoch_undo -> [ fields_seal; seal_slot ]
  | Strand_ops -> [ put_strand; get_strand; fields_seal; seal_slot ]
  | Buggy_undo -> [ fields_seal ]

let barrier on s = if List.memq s on then M.persist_barrier_at s
let new_strand on s = if List.memq s on then M.new_strand_at s

let discipline_for = function
  | Persistency.Config.Strict -> Strict_stores
  | Persistency.Config.Epoch -> Epoch_undo
  | Persistency.Config.Strand -> Strand_ops

let validate (p : params) =
  if p.threads < 1 then invalid_arg "Kv: threads must be >= 1";
  if p.ops_per_thread < 1 then invalid_arg "Kv: ops_per_thread must be >= 1";
  if p.get_every = 1 || p.get_every < 0 then
    invalid_arg "Kv: get_every must be 0 (no gets) or >= 2";
  if p.key_space < 1 then invalid_arg "Kv: key_space must be >= 1";
  if p.groups < 1 || p.group_size < 1 then
    invalid_arg "Kv: groups and group_size must be >= 1";
  if p.key_space > p.groups * p.group_size then
    invalid_arg "Kv: key_space exceeds table capacity (load factor > 1)";
  Workloads.Keygen.validate p.dist ~key_space:p.key_space

let pp_params ppf (p : params) =
  Format.fprintf ppf "%s threads=%d ops=%d keys=%d/%d slots (%d x %d) seed=%d%s"
    (discipline_name p.discipline)
    p.threads p.ops_per_thread p.key_space
    (p.groups * p.group_size)
    p.groups p.group_size p.seed
    (match p.dist with
    | Workloads.Keygen.Uniform -> ""
    | d -> " dist=" ^ Workloads.Keygen.dist_name d)

(* ------------------------------------------------------------------ *)
(* Deterministic workload shape *)

type op =
  | Put of { key : int; value : int64 }
  | Get of { key : int }

(* splitmix-style finalizer over the 63-bit int range *)
let mix seed x =
  let h = ((x + 1) * 0x9E3779B97F4A7C1) + ((seed + 1) * 0x3F58476D1CE4E5B9) in
  let h = h lxor (h lsr 31) in
  let h = h * 0x14D049BB133111EB in
  (h lxor (h lsr 29)) land max_int

(* Keys hash to a group; a full group spills its keys to the next one
   (deterministically), so no group ever holds more than [group_size]
   distinct keys and an in-group probe always terminates.  This models
   a well-dimensioned hash function while keeping the assignment a pure
   function of the keys and the seed for the recovery checkers. *)
let place_keys ~groups ~group_size n hash =
  let counts = Array.make groups 0 in
  Array.init n (fun i ->
      let g0 = hash i mod groups in
      let rec place d =
        let g = (g0 + d) mod groups in
        if counts.(g) < group_size then begin
          counts.(g) <- counts.(g) + 1;
          g
        end
        else place (d + 1)
      in
      place 0)

let key_groups (p : params) =
  place_keys ~groups:p.groups ~group_size:p.group_size p.key_space
    (mix p.seed)

let is_get (p : params) ~seq = p.get_every >= 2 && (seq + 1) mod p.get_every = 0

(* Key for draw index [draw].  Uniform keeps the original mix-based
   formula bit-for-bit (golden outputs and explorer corpora depend on
   it); the skewed shapes delegate to Workloads.Keygen, which is an
   equally pure function of (seed, draw) — the recovery checker's
   replay works unchanged.  Keygen creation is O(key_space) per call;
   the KV sweeps keep key_space small, and the serve path builds its
   own generator once. *)
let key_of (p : params) ~draw =
  match p.dist with
  | Workloads.Keygen.Uniform -> 1 + (mix p.seed draw mod p.key_space)
  | d ->
    Workloads.Keygen.key_at
      (Workloads.Keygen.create d ~key_space:p.key_space ~seed:p.seed)
      draw

let op_of (p : params) ~tid ~seq =
  let global = (tid * p.ops_per_thread) + seq in
  if is_get p ~seq then Get { key = key_of p ~draw:((2 * global) + 1) }
  else
    Put
      { key = key_of p ~draw:(2 * global); value = Int64.of_int (global + 1) }

let written (p : params) =
  let acc = ref [] in
  for tid = p.threads - 1 downto 0 do
    for seq = p.ops_per_thread - 1 downto 0 do
      match op_of p ~tid ~seq with
      | Put { key; value } -> acc := (key, value) :: !acc
      | Get _ -> ()
    done
  done;
  !acc

(* The salt keeps high bits set that the small key/value products never
   reach, so a valid slot's checksum is never zero and a torn slot
   (checksum word missing, hence zero) can never masquerade as valid. *)
let salt = 0x5DEECE66D123457L

let slot_sum ~key ~value =
  Int64.logxor salt
    (Int64.logxor (Int64.mul key 0x100000001B3L) (Int64.mul value 31L))

let puts_per_thread (p : params) =
  p.ops_per_thread
  - (if p.get_every >= 2 then p.ops_per_thread / p.get_every else 0)

(* ------------------------------------------------------------------ *)
(* Execution *)

(* Linear probe inside the key's bucket group for the key or the first
   empty slot.  Returns the slot address, its global index, the probe
   length, and the key word found there (0 for an empty slot).  Every
   key-word load is a real machine event: under strand persistency
   those loads are what orders this operation's persists after the
   slots' previous writers (the paper's minimal-ordering idiom). *)
let probe (p : params) (layout : layout) kgroups key =
  let key64 = Int64.of_int key in
  let g = kgroups.(key - 1) in
  let base = layout.table_addr + (g * p.group_size * slot_bytes) in
  let rec go i =
    if i >= p.group_size then
      (* key_groups caps per-group occupancy at group_size *)
      assert false
    else begin
      let slot = base + (i * slot_bytes) in
      let k = M.load slot in
      if Int64.equal k 0L || Int64.equal k key64 then
        (slot, (g * p.group_size) + i, i + 1, k)
      else go (i + 1)
    end
  in
  go 0

let observe_probe probes plen =
  probes := !probes + plen;
  Om.add m_probes plen;
  Om.observe m_probe_len (float_of_int plen)

let do_put (p : params) on (layout : layout) kgroups locks ~tid ~nput ~probes
    key value =
  let key64 = Int64.of_int key in
  let g = kgroups.(key - 1) in
  M.label "put";
  M.lock locks.(g);
  new_strand on put_strand;
  let slot, slot_index, plen, old_key = probe p layout kgroups key in
  observe_probe probes plen;
  let old_value = M.load (slot + 8) in
  let old_sum = M.load (slot + 16) in
  (* undo-log record: slot index + previous triple, then the seal *)
  let rec_addr =
    layout.log_addr + (((tid * layout.log_capacity) + !nput) * rec_bytes)
  in
  M.store rec_addr (Int64.of_int slot_index);
  M.store (rec_addr + 8) old_key;
  M.store (rec_addr + 16) old_value;
  M.store (rec_addr + 24) old_sum;
  (* fields -> seal: a sealed record is never torn *)
  barrier on fields_seal;
  M.store (rec_addr + 32) (Int64.of_int (!nput + 1));
  (* seal -> slot: the in-place update persists only after its complete
     undo record; dropping this is the deliberate Buggy_undo hole *)
  barrier on seal_slot;
  Om.incr m_log_appends;
  incr nput;
  M.store slot key64;
  M.store (slot + 8) value;
  M.store (slot + 16) (slot_sum ~key:key64 ~value);
  M.unlock locks.(g);
  Om.incr m_puts

let do_get (p : params) on (layout : layout) kgroups locks ~probes key =
  let g = kgroups.(key - 1) in
  M.label "get";
  M.lock locks.(g);
  new_strand on get_strand;
  let slot, _, plen, found = probe p layout kgroups key in
  observe_probe probes plen;
  if not (Int64.equal found 0L) then ignore (M.load (slot + 8));
  M.unlock locks.(g);
  Om.incr m_gets

let run ?sites:on (p : params) ~sink =
  validate p;
  let on = match on with Some on -> on | None -> sites p.discipline in
  let table_bytes = p.groups * p.group_size * slot_bytes in
  let log_capacity = max 1 (puts_per_thread p) in
  let log_bytes = p.threads * log_capacity * rec_bytes in
  let memory =
    Memsim.Memory.create
      ~persistent_capacity:(table_bytes + log_bytes + 64)
      ~volatile_capacity:(4096 + (64 * p.groups) + (32 * p.threads))
      ()
  in
  let machine =
    M.create ~policy:p.policy ~model:p.machine ~persistence:p.persistence
      ~barrier:p.barrier ~memory ()
  in
  M.set_sink machine sink;
  let table_addr =
    Memsim.Memory.alloc memory Memsim.Addr.Persistent table_bytes
  in
  let log_addr = Memsim.Memory.alloc memory Memsim.Addr.Persistent log_bytes in
  let layout =
    { table_addr;
      table_bytes;
      log_addr;
      log_bytes;
      groups = p.groups;
      group_size = p.group_size;
      log_capacity }
  in
  let kgroups = key_groups p in
  let locks = Array.init p.groups (fun _ -> M.mutex machine) in
  let puts = ref 0 and gets = ref 0 and probes = ref 0 in
  for tid = 0 to p.threads - 1 do
    ignore
      (M.spawn machine (fun () ->
           let nput = ref 0 in
           for seq = 0 to p.ops_per_thread - 1 do
             match op_of p ~tid ~seq with
             | Put { key; value } ->
               do_put p on layout kgroups locks ~tid ~nput ~probes key value;
               incr puts
             | Get { key } ->
               do_get p on layout kgroups locks ~probes key;
               incr gets
           done))
  done;
  M.run machine;
  Om.incr m_runs;
  Om.add m_events (M.event_count machine);
  { layout; puts = !puts; gets = !gets; probes = !probes;
    events = M.event_count machine }
