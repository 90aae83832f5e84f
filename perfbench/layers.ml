(* The traced run's own instrumentation: an in-memory span recorder plus
   named per-layer metrics, fed from around the calls the benchmark
   makes into each layer's public functions.  Nothing here turns on
   [Obs.Metrics] or [Obs.Tracer]; the library runs exactly as in the
   untraced run.  [off] makes every operation a plain call, so a
   workload's set-up can take a recorder without paying for one. *)

type span = {
  id : int;
  parent : int;  (** -1 at the root *)
  name : string;
  start : float;
  stop : float;
}

type t = {
  on : bool;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable current : int;
  values : (string, float ref) Hashtbl.t;
  mutable order : string list;  (** metric names, newest first *)
}

let now = Unix.gettimeofday

let make on =
  { on; spans = []; next_id = 0; current = -1; values = Hashtbl.create 64;
    order = [] }

let off = make false
let create () = make true

let cell t name =
  match Hashtbl.find_opt t.values name with
  | Some r -> r
  | None ->
    let r = ref 0. in
    Hashtbl.add t.values name r;
    t.order <- name :: t.order;
    r

let add t name v =
  if t.on then begin
    let r = cell t name in
    r := !r +. v
  end

let set t name v = if t.on then cell t name := v

let get t name =
  match Hashtbl.find_opt t.values name with Some r -> !r | None -> 0.

(* [span t name f] runs [f] as a child of the innermost open span and
   adds its duration to the metric [metric], when given. *)
let span ?metric t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = t.current in
    t.current <- id;
    let start = now () in
    let finish () =
      let stop = now () in
      t.current <- parent;
      t.spans <- { id; parent; name; start; stop } :: t.spans;
      Option.iter (fun m -> add t m (stop -. start)) metric
    in
    Fun.protect ~finally:finish f
  end

(* Per-call time for calls too frequent to keep a span each (one
   workload execution, one observer call): summed into [metric]. *)
let timed t metric f =
  if not t.on then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> add t metric (now () -. t0)) f
  end

let metrics t = List.rev_map (fun name -> (name, get t name)) t.order

let ratio a b = if b > 0. then a /. b else 0.

let spans_json t =
  Obs.Json.List
    (List.rev_map
       (fun s ->
         Obs.Json.Obj
           [ ("id", Obs.Json.Int s.id);
             ("parent", Obs.Json.Int s.parent);
             ("name", Obs.Json.Str s.name);
             ("start", Obs.Json.Float s.start);
             ("dur", Obs.Json.Float (s.stop -. s.start)) ])
       t.spans)
