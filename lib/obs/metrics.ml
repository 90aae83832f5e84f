type counter = { c_live : bool ref; c_value : int Atomic.t }
type gauge = { g_live : bool ref; g_max : float Atomic.t }

(* Raw-sample capacity per histogram: the first [sample_cap]
   observations are kept verbatim so the JSON dump can report exact
   p95/p99 tails (fixed buckets alone cannot).  It is a window, not a
   reservoir: past the cap the tails describe the earliest
   observations only, and the dump says over how many. *)
let sample_cap = 4096

type histogram = {
  h_live : bool ref;
  h_bounds : float array;  (* ascending upper bounds *)
  h_counts : int Atomic.t array;  (* length = bounds + 1 (overflow) *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_samples : float array;  (* first [sample_cap] raw observations *)
  h_sample_next : int Atomic.t;  (* next raw slot to claim (may exceed cap) *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type registry = {
  live : bool ref;
  mu : Mutex.t;
  instruments : (string, instrument) Hashtbl.t;
}

let create () =
  { live = ref false; mu = Mutex.create (); instruments = Hashtbl.create 64 }

let default = create ()

let set_enabled r on = r.live := on
let enabled r = !(r.live)

(* CAS loops for float atomics (add and max). *)
let atomic_add_float a x =
  let rec go () =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (cur +. x)) then go ()
  in
  go ()

let atomic_max_float a x =
  let rec go () =
    let cur = Atomic.get a in
    if x > cur && not (Atomic.compare_and_set a cur x) then go ()
  in
  go ()

let register r name mk check =
  Mutex.lock r.mu;
  let result =
    match Hashtbl.find_opt r.instruments name with
    | Some existing -> check existing
    | None ->
      let i = mk () in
      Hashtbl.add r.instruments name i;
      Ok i
  in
  Mutex.unlock r.mu;
  match result with
  | Ok i -> i
  | Error kind ->
    invalid_arg
      (Printf.sprintf "Metrics: %S already registered as a different %s" name
         kind)

let counter r name =
  let i =
    register r name
      (fun () -> Counter { c_live = r.live; c_value = Atomic.make 0 })
      (function Counter _ as c -> Ok c | _ -> Error "instrument type")
  in
  match i with Counter c -> c | _ -> assert false

let incr c = if !(c.c_live) then Atomic.incr c.c_value
let add c n = if !(c.c_live) then ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

let gauge_max r name =
  let i =
    register r name
      (fun () -> Gauge { g_live = r.live; g_max = Atomic.make 0. })
      (function Gauge _ as g -> Ok g | _ -> Error "instrument type")
  in
  match i with Gauge g -> g | _ -> assert false

let observe_max g x = if !(g.g_live) then atomic_max_float g.g_max x
let gauge_value g = Atomic.get g.g_max

let pow2_buckets n =
  if n < 1 then invalid_arg "Metrics.pow2_buckets: n must be >= 1";
  Array.init n (fun i -> Float.of_int (1 lsl i))

let default_buckets = pow2_buckets 13

let histogram r ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be strictly ascending")
    buckets;
  let i =
    register r name
      (fun () ->
        Histogram
          { h_live = r.live;
            h_bounds = Array.copy buckets;
            h_counts =
              Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0.;
            h_samples = Array.make sample_cap 0.;
            h_sample_next = Atomic.make 0 })
      (function
        | Histogram h as i ->
          if h.h_bounds = buckets then Ok i else Error "bucket layout"
        | _ -> Error "instrument type")
  in
  match i with Histogram h -> h | _ -> assert false

let bucket_index bounds x =
  (* First bound >= x; bounds are few (tens), linear scan is fine. *)
  let n = Array.length bounds in
  let rec go i = if i = n || x <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h x =
  if !(h.h_live) then begin
    ignore (Atomic.fetch_and_add h.h_counts.(bucket_index h.h_bounds x) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    atomic_add_float h.h_sum x;
    (* fetch_and_add claims a unique raw slot, so concurrent domains
       never write the same index *)
    let slot = Atomic.fetch_and_add h.h_sample_next 1 in
    if slot < sample_cap then h.h_samples.(slot) <- x
  end

let histogram_count h = Atomic.get h.h_count
let histogram_sum h = Atomic.get h.h_sum

let histogram_tail_count h = min (Atomic.get h.h_sample_next) sample_cap

let histogram_samples h =
  List.init (histogram_tail_count h) (fun i -> h.h_samples.(i))

let histogram_percentile h p =
  match histogram_samples h with
  | [] -> None
  | samples -> Some (Pstats.Summary.percentile p samples)

let histogram_buckets h =
  List.init
    (Array.length h.h_counts)
    (fun i ->
      let le =
        if i < Array.length h.h_bounds then h.h_bounds.(i) else infinity
      in
      (le, Atomic.get h.h_counts.(i)))

let reset r =
  Mutex.lock r.mu;
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> Atomic.set c.c_value 0
      | Gauge g -> Atomic.set g.g_max 0.
      | Histogram h ->
        Array.iter (fun a -> Atomic.set a 0) h.h_counts;
        Atomic.set h.h_count 0;
        Atomic.set h.h_sum 0.;
        Atomic.set h.h_sample_next 0)
    r.instruments;
  Mutex.unlock r.mu

let instrument_json name = function
  | Counter c ->
    Json.Obj
      [ ("name", Json.Str name);
        ("type", Json.Str "counter");
        ("value", Json.Int (counter_value c)) ]
  | Gauge g ->
    Json.Obj
      [ ("name", Json.Str name);
        ("type", Json.Str "gauge_max");
        ("value", Json.Float (gauge_value g)) ]
  | Histogram h ->
    let percentile p =
      match histogram_percentile h p with
      | Some v -> Json.Float v
      | None -> Json.Null
    in
    Json.Obj
      [ ("name", Json.Str name);
        ("type", Json.Str "histogram");
        ("count", Json.Int (histogram_count h));
        ("tail_count", Json.Int (histogram_tail_count h));
        ("sum", Json.Float (histogram_sum h));
        ("p95", percentile 0.95);
        ("p99", percentile 0.99);
        ( "buckets",
          Json.List
            (List.map
               (fun (le, count) ->
                 Json.Obj
                   [ ("le", if le = infinity then Json.Null else Json.Float le);
                     ("count", Json.Int count) ])
               (histogram_buckets h)) ) ]

let to_json r =
  Mutex.lock r.mu;
  let items =
    Hashtbl.fold (fun name i acc -> (name, i) :: acc) r.instruments []
  in
  Mutex.unlock r.mu;
  let items = List.sort (fun (a, _) (b, _) -> String.compare a b) items in
  Json.Obj
    [ ("metrics", Json.List (List.map (fun (n, i) -> instrument_json n i) items))
    ]

let dump_file r path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json r));
      output_char oc '\n')
