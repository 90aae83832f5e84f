module M = Memsim.Machine
module Om = Obs.Metrics

let m_requests = Om.counter Om.default "serve.requests"
let m_served = Om.counter Om.default "serve.served"
let m_shed = Om.counter Om.default "serve.shed"
let m_batches = Om.counter Om.default "serve.batches"
let m_puts = Om.counter Om.default "serve.puts"
let m_gets = Om.counter Om.default "serve.gets"

let m_fill =
  Om.histogram Om.default ~buckets:(Om.pow2_buckets 10) "serve.batch_fill"

let m_latency =
  Om.histogram Om.default ~buckets:(Om.pow2_buckets 16) "serve.latency"

let g_rate = Om.gauge_max Om.default "serve.requests_per_sec"

type model = {
  label : string;
  mode : Persistency.Config.mode;
  discipline : Kv_group.discipline;
}

let strict_model =
  { label = "strict";
    mode = Persistency.Config.Strict;
    discipline = Kv_group.Strict_group }

let epoch_model =
  { label = "epoch";
    mode = Persistency.Config.Epoch;
    discipline = Kv_group.Epoch_group }

let strand_model =
  { label = "strand";
    mode = Persistency.Config.Strand;
    discipline = Kv_group.Strand_group }

let buggy_model =
  { label = "epoch-buggy";
    mode = Persistency.Config.Epoch;
    discipline = Kv_group.Buggy_seal }

let models = [ strict_model; epoch_model; strand_model ]

type params = {
  model : model;
  shards : int;
  batch : int;
  queue_cap : int;
  group_size : int;
  load : Loadgen.params;
  record_graph : bool;
}

let default_params =
  { model = epoch_model;
    shards = 2;
    batch = 8;
    queue_cap = 256;
    group_size = 8;
    load = Loadgen.default_params;
    record_graph = false }

let validate (p : params) =
  if p.shards < 1 then invalid_arg "Serve: shards must be >= 1";
  if p.batch < 1 then invalid_arg "Serve: batch must be >= 1";
  if p.queue_cap < 1 then invalid_arg "Serve: queue_cap must be >= 1";
  Loadgen.validate p.load

type shard_result = {
  shard : int;
  served : int;
  shed : int;
  puts : int;
  gets : int;
  batches : int;
  fill_sum : int;
  critical_path : int;
  makespan : float;
  probes : int;
  events : int;
  graph : Persistency.Persist_graph.t option;
  layout : Kv_group.layout;
  put_batches : Kv_group.put list list;
}

type report = {
  params : params;
  served : int;
  shed : int;
  puts : int;
  gets : int;
  batches : int;
  mean_fill : float;
  cp_total : int;
  cp_per_put : float;
  cp_per_op : float;
  lat_mean : float;
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  lat_max : float;
  makespan : float;
  throughput : float;
  shard_results : shard_result list;
}

(* Shard routing: an independent hash of the key, so it correlates with
   neither the popularity draw nor the in-shard group placement. *)
let shard_salt = 0x51a4d

let route ~seed ~shards key = Kv.mix (seed + shard_salt) key mod shards

let key_of_op = function
  | Loadgen.Get key -> key
  | Loadgen.Put { key; _ } -> key

(* One shard: its own machine, engine and group-commit store, plus the
   open-loop queueing discipline, all driven from a single spawned
   thread.  The machine's event sink feeds the engine synchronously, so
   the thread body can read the persist critical path before and after
   each batch — the delta is the batch's persist-bound service time,
   and the clock the queue advances by. *)
let run_shard (p : params) ~shard ~keys ~(reqs : Loadgen.request array)
    ~latencies =
  let cfg =
    Persistency.Config.make ~record_graph:p.record_graph p.model.mode
  in
  let engine = Persistency.Engine.create cfg in
  let nputs =
    Array.fold_left
      (fun acc (r : Loadgen.request) ->
        match r.Loadgen.op with Loadgen.Put _ -> acc + 1 | Loadgen.Get _ -> acc)
      0 reqs
  in
  let store =
    Kv_group.create ~group_size:p.group_size ~seed:p.load.Loadgen.seed
      ~discipline:p.model.discipline ~keys ~log_capacity:(max 1 nputs)
      ~sink:(Persistency.Engine.observe engine)
      ()
  in
  let served = ref 0 and shed = ref 0 in
  let puts = ref 0 and gets = ref 0 in
  let batches = ref 0 and fill_sum = ref 0 in
  let makespan = ref 0. in
  let n = Array.length reqs in
  ignore
    (M.spawn (Kv_group.machine store) (fun () ->
         let i = ref 0 in
         let t_free = ref 0. in
         let pending = Queue.create () in
         let admit limit =
           while !i < n && reqs.(!i).Loadgen.arrival <= limit do
             if Queue.length pending >= p.queue_cap then begin
               incr shed;
               Om.incr m_shed
             end
             else Queue.add reqs.(!i) pending;
             incr i
           done
         in
         while !i < n || not (Queue.is_empty pending) do
           (* idle until the next arrival when the queue is empty *)
           if Queue.is_empty pending then
             t_free := Float.max !t_free reqs.(!i).Loadgen.arrival;
           admit !t_free;
           if not (Queue.is_empty pending) then begin
             let k = min p.batch (Queue.length pending) in
             let batch = List.init k (fun _ -> Queue.pop pending) in
             let put_list =
               List.filter_map
                 (fun (r : Loadgen.request) ->
                   match r.Loadgen.op with
                   | Loadgen.Put { key; value } -> Some { Kv_group.key; value }
                   | Loadgen.Get _ -> None)
                 batch
             in
             let get_list =
               List.filter_map
                 (fun (r : Loadgen.request) ->
                   match r.Loadgen.op with
                   | Loadgen.Get key -> Some key
                   | Loadgen.Put _ -> None)
                 batch
             in
             let cp0 = Persistency.Engine.critical_path engine in
             Kv_group.exec_batch store ~puts:put_list ~gets:get_list;
             let dcp = Persistency.Engine.critical_path engine - cp0 in
             let t_done = !t_free +. float_of_int dcp in
             List.iter
               (fun (r : Loadgen.request) ->
                 (* reads are served from the volatile image when the
                    batch starts; writes complete when their batch's
                    persists are on the critical path *)
                 let finish =
                   match r.Loadgen.op with
                   | Loadgen.Get _ -> !t_free
                   | Loadgen.Put _ -> t_done
                 in
                 let lat = finish -. r.Loadgen.arrival in
                 latencies := lat :: !latencies;
                 Om.observe m_latency lat)
               batch;
             served := !served + k;
             puts := !puts + List.length put_list;
             gets := !gets + List.length get_list;
             incr batches;
             fill_sum := !fill_sum + k;
             Om.observe m_fill (float_of_int k);
             Om.incr m_batches;
             t_free := t_done
           end
         done;
         makespan := !t_free));
  M.run (Kv_group.machine store);
  Om.add m_served !served;
  Om.add m_puts !puts;
  Om.add m_gets !gets;
  { shard;
    served = !served;
    shed = !shed;
    puts = !puts;
    gets = !gets;
    batches = !batches;
    fill_sum = !fill_sum;
    critical_path = Persistency.Engine.critical_path engine;
    makespan = !makespan;
    probes = Kv_group.probes store;
    events = M.event_count (Kv_group.machine store);
    graph = Persistency.Engine.graph engine;
    layout = Kv_group.layout store;
    put_batches = Kv_group.batches store }

let run (p : params) =
  validate p;
  Obs.Perfscope.with_span ~cat:"phase" "serve" @@ fun () ->
  let span = Obs.Perfscope.start () in
  let reqs = Loadgen.generate p.load in
  Om.add m_requests (Array.length reqs);
  let seed = p.load.Loadgen.seed in
  let shard_reqs = Array.make p.shards [] in
  Array.iter
    (fun (r : Loadgen.request) ->
      let s = route ~seed ~shards:p.shards (key_of_op r.Loadgen.op) in
      shard_reqs.(s) <- r :: shard_reqs.(s))
    reqs;
  let shard_keys =
    Array.init p.shards (fun s ->
        List.filter
          (fun key -> route ~seed ~shards:p.shards key = s)
          (List.init p.load.Loadgen.key_space (fun i -> i + 1)))
  in
  let latencies = ref [] in
  let shard_results =
    List.init p.shards (fun s ->
        run_shard p ~shard:s ~keys:shard_keys.(s)
          ~reqs:(Array.of_list (List.rev shard_reqs.(s)))
          ~latencies)
  in
  let sum f =
    List.fold_left (fun acc (r : shard_result) -> acc + f r) 0 shard_results
  in
  let served = sum (fun r -> r.served) in
  let shed = sum (fun r -> r.shed) in
  let puts = sum (fun r -> r.puts) in
  let gets = sum (fun r -> r.gets) in
  let batches = sum (fun r -> r.batches) in
  let fill_sum = sum (fun r -> r.fill_sum) in
  let cp_total = sum (fun r -> r.critical_path) in
  let makespan =
    List.fold_left
      (fun acc (r : shard_result) -> Float.max acc r.makespan)
      0. shard_results
  in
  let lats = !latencies in
  let summary = Pstats.Summary.of_list lats in
  let pct q = Pstats.Summary.percentile q lats in
  let delta = Obs.Perfscope.finish span in
  Obs.Perfscope.throughput g_rate ~items:served
    ~seconds:delta.Obs.Perfscope.wall_s;
  { params = p;
    served;
    shed;
    puts;
    gets;
    batches;
    mean_fill =
      (if batches = 0 then 0.
       else float_of_int fill_sum /. float_of_int batches);
    cp_total;
    cp_per_put =
      (if puts = 0 then 0. else float_of_int cp_total /. float_of_int puts);
    cp_per_op =
      (if served = 0 then 0.
       else float_of_int cp_total /. float_of_int served);
    lat_mean = (if lats = [] then 0. else Pstats.Summary.mean summary);
    lat_p50 = (if lats = [] then 0. else pct 0.50);
    lat_p95 = (if lats = [] then 0. else pct 0.95);
    lat_p99 = (if lats = [] then 0. else pct 0.99);
    lat_max = (if lats = [] then 0. else Pstats.Summary.max_value summary);
    makespan;
    throughput = (if makespan > 0. then float_of_int served /. makespan else 0.);
    shard_results }
