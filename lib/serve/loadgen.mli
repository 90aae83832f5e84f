(** Open-loop load generator for the served KV.

    Produces the full request stream — arrival time, client session,
    operation, key — as a pure function of [params] before the server
    runs.  Open-loop means arrivals never wait for the server: when the
    front-end backs up, requests queue or shed instead of the generator
    politely slowing down, which is what makes overload behaviour (and
    tail latency) measurable at all.

    Time is in persist-critical-path units — the simulator's clock —
    so [rate] is "requests per unit of persist critical path" and a
    shard whose batch grows the critical path by Δ is busy for Δ units
    of arrivals. *)

type burst = {
  period : float;  (** a burst window starts every [period] units *)
  width : float;  (** ... and lasts [width] (0 < width <= period) *)
  factor : float;  (** arrival rate multiplier inside the window, >= 1 *)
}

type params = {
  requests : int;
  clients : int;  (** concurrent client sessions (request attribution) *)
  rate : float;  (** mean arrivals per persist unit, > 0 *)
  read_pct : int;  (** percentage of requests that are reads, [0, 100] *)
  dist : Workloads.Keygen.dist;  (** key popularity *)
  key_space : int;
  burst : burst option;
  seed : int;
}

type op =
  | Get of int
  | Put of { key : int; value : int64 }
      (** values are unique and non-zero across the stream
          ([rid + 1]) — the KV checksum/undo machinery depends on
          both *)

type request = {
  rid : int;  (** position in the stream, 0-based *)
  client : int;
  arrival : float;
  op : op;
}

val default_params : params
(** 8192 requests from 4096 clients at 96/unit, 25% reads, Zipf 0.99
    over 512 keys, no bursts, seed 42 — deliberately above one shard's
    epoch service capacity, so batching has something to amortize. *)

val validate : params -> unit
(** @raise Invalid_argument on non-positive sizes/rates, a read
    percentage outside [0, 100], a malformed distribution or burst. *)

val generate : params -> request array
(** The stream, in arrival order (arrivals are strictly increasing).
    Deterministic: equal params give equal arrays.  Inter-arrival gaps
    are jittered uniformly in [0.5, 1.5) / rate (mean 1/rate); inside
    a burst window the instantaneous rate is multiplied by
    [burst.factor]. *)

val in_burst : burst -> float -> bool
