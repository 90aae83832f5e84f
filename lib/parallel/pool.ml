exception Cell_error of {
  index : int;
  label : string;
  message : string;
  backtrace : string;
}

let () =
  Printexc.register_printer (function
    | Cell_error { index; label; message; _ } ->
      Some
        (Printf.sprintf "Pool.Cell_error(cell %d, %s): %s" index label message)
    | _ -> None)

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

module M = Obs.Metrics

let m_sweeps = M.counter M.default "pool.sweeps"
let m_cells = M.counter M.default "pool.cells"
let m_domains = M.gauge_max M.default "pool.domains"

let m_cell_seconds =
  M.histogram M.default "pool.cell_seconds"
    ~buckets:[| 0.001; 0.01; 0.1; 1.; 10.; 100. |]

let m_cells_rate = M.gauge_max M.default "pool.cells_per_sec"

type profile = {
  domains : int;
  wall_seconds : float;
  cells : (string * float) list;
}

(* A cell's outcome.  [Failed] keeps the printed form rather than the
   exception value so nothing domain-local escapes a worker. *)
type 'b slot =
  | Pending
  | Done of 'b
  | Failed of { message : string; backtrace : string }

let now () = Unix.gettimeofday ()

(* Runs one cell under a GC-accounted tracing span named after it (a
   plain call when metrics and tracing are both off).  The span is
   emitted from the executing domain, so its tid in the trace is the
   domain that ran the cell; Perfscope attaches the cell's allocation
   delta to the closing event and feeds the gc.* counters. *)
let run_cell ~label ~index f cell =
  Obs.Perfscope.with_span ~cat:"cell"
    ~args:[ ("index", string_of_int index) ]
    (label index cell)
  @@ fun () ->
  let t0 = now () in
  let outcome =
    match f cell with
    | v -> Done v
    | exception e ->
      let backtrace = Printexc.get_backtrace () in
      Failed { message = Printexc.to_string e; backtrace }
  in
  let dt = now () -. t0 in
  M.incr m_cells;
  M.observe m_cell_seconds dt;
  (outcome, dt)

let collect ~label cells slots =
  let n = Array.length slots in
  let first_failure = ref None in
  let results =
    List.init n (fun i ->
        match slots.(i) with
        | Done v -> Some v
        | Failed { message; backtrace } ->
          if !first_failure = None then
            first_failure :=
              Some
                (Cell_error
                   { index = i; label = label i cells.(i); message; backtrace });
          None
        | Pending -> assert false)
  in
  (match !first_failure with Some e -> raise e | None -> ());
  List.map Option.get results

let map_cells_profiled ?domains ?(label = fun i _ -> Printf.sprintf "cell %d" i)
    f cell_list =
  let cells = Array.of_list cell_list in
  let n = Array.length cells in
  let requested =
    match domains with Some d -> d | None -> default_domains ()
  in
  let workers = max 1 (min requested n) in
  let slots = Array.make n Pending in
  let times = Array.make n 0. in
  M.incr m_sweeps;
  M.observe_max m_domains (float_of_int workers);
  (* Opt-in heartbeat: one stderr line per interval with completed/total
     and an ETA, so long sweeps are observable in flight. *)
  let prog =
    Obs.Perfscope.progress_start ~total:n
      (Printf.sprintf "sweep (%d cells, %d domains)" n workers)
  in
  let t0 = now () in
  (* Self-scheduling: every worker takes the next unclaimed cell from
     one shared cursor until the cursor passes [n].  Cells are coarse
     (a whole machine run each), so one atomic per cell is the whole
     scheduler; with one worker the calling domain runs the cells in
     input order. *)
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let outcome, dt = run_cell ~label ~index:i f cells.(i) in
      slots.(i) <- outcome;
      times.(i) <- dt;
      Obs.Perfscope.progress_step prog;
      work ()
    end
  in
  let spawned = List.init (workers - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join spawned;
  let wall_seconds = now () -. t0 in
  Obs.Perfscope.progress_finish prog;
  Obs.Perfscope.throughput m_cells_rate ~items:n ~seconds:wall_seconds;
  let results = collect ~label cells slots in
  let profile =
    { domains = workers;
      wall_seconds;
      cells = List.init n (fun i -> (label i cells.(i), times.(i))) }
  in
  (results, profile)

let map_cells ?domains ?label f cell_list =
  fst (map_cells_profiled ?domains ?label f cell_list)

let profile_summary p = Pstats.Summary.of_list (List.map snd p.cells)

let render_profile p =
  match p.cells with
  | [] -> Printf.sprintf "sweep profile: 0 cells on %d domain(s)\n" p.domains
  | _ ->
    let s = profile_summary p in
    let total = Pstats.Summary.total s in
    let slowest =
      List.fold_left
        (fun (bl, bt) (l, t) -> if t > bt then (l, t) else (bl, bt))
        ("", neg_infinity) p.cells
    in
    let speedup =
      (* A zero wall clock (timer granularity) makes the ratio
         meaningless; say so rather than printing a fictitious 1.00x. *)
      if p.wall_seconds > 0. then
        Printf.sprintf "%.2fx" (total /. p.wall_seconds)
      else "n/a"
    in
    let p95 = Pstats.Summary.percentile 0.95 (List.map snd p.cells) in
    Printf.sprintf
      "sweep profile: %d cells on %d domain(s): wall %.3f s, cells sum %.3f s \
       (speedup %s)\n\
      \  per cell: mean %.3f s, min %.3f s, p95 %.3f s, max %.3f s; slowest \
       %s (%.3f s)\n"
      (Pstats.Summary.count s) p.domains p.wall_seconds total speedup
      (Pstats.Summary.mean s)
      (Pstats.Summary.min_value s)
      p95
      (Pstats.Summary.max_value s)
      (fst slowest) (snd slowest)
