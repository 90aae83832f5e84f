(* Open-loop load generation.  Arrival times, operations, keys and
   client ids are all pure functions of (params, request id), computed
   in one forward pass: the stream exists before the server runs and
   does not slow down when the server backs up — the defining property
   of an open-loop workload, and what makes shed/latency under overload
   meaningful.  Time is measured in persist-critical-path units, the
   simulator's only clock. *)

type burst = { period : float; width : float; factor : float }

type params = {
  requests : int;
  clients : int;
  rate : float;
  read_pct : int;
  dist : Workloads.Keygen.dist;
  key_space : int;
  burst : burst option;
  seed : int;
}

type op =
  | Get of int
  | Put of { key : int; value : int64 }

type request = {
  rid : int;
  client : int;
  arrival : float;
  op : op;
}

let default_params =
  { requests = 8192;
    clients = 4096;
    rate = 96.;
    read_pct = 25;
    dist = Workloads.Keygen.Zipf 0.99;
    key_space = 512;
    burst = None;
    seed = 42 }

let validate (p : params) =
  if p.requests < 0 then invalid_arg "Loadgen: requests must be >= 0";
  if p.clients < 1 then invalid_arg "Loadgen: clients must be >= 1";
  if not (Float.is_finite p.rate) || p.rate <= 0. then
    invalid_arg "Loadgen: rate must be finite and > 0";
  if p.read_pct < 0 || p.read_pct > 100 then
    invalid_arg "Loadgen: read_pct must be in [0, 100]";
  Workloads.Keygen.validate p.dist ~key_space:p.key_space;
  match p.burst with
  | None -> ()
  | Some b ->
    if
      (not (Float.is_finite b.period))
      || b.period <= 0.
      || not (Float.is_finite b.width)
      || b.width <= 0. || b.width > b.period
      || (not (Float.is_finite b.factor))
      || b.factor < 1.
    then
      invalid_arg
        "Loadgen: burst needs 0 < width <= period and factor >= 1"

(* Jitter in [0.5, 1.5): mean 1, so the long-run arrival rate is
   [rate] while consecutive gaps still vary. *)
let jitter seed i =
  0.5 +. (float_of_int (Kv.mix seed i) /. (float_of_int max_int +. 1.))

let in_burst (b : burst) t = Float.rem t b.period < b.width

let generate (p : params) =
  validate p;
  let kg = Workloads.Keygen.create p.dist ~key_space:p.key_space ~seed:p.seed in
  let t = ref 0. in
  Array.init p.requests (fun rid ->
      let eff_rate =
        match p.burst with
        | Some b when in_burst b !t -> p.rate *. b.factor
        | _ -> p.rate
      in
      t := !t +. (jitter p.seed (3 * rid) /. eff_rate);
      let read = Kv.mix p.seed ((3 * rid) + 1) mod 100 < p.read_pct in
      let key = Workloads.Keygen.key_at kg rid in
      let client = Kv.mix p.seed ((3 * rid) + 2) mod p.clients in
      let op =
        if read then Get key else Put { key; value = Int64.of_int (rid + 1) }
      in
      { rid; client; arrival = !t; op })
