(** Fixed-size domain pool for experiment sweeps.

    Every experiment driver enumerates a configuration sweep as a list
    of independent cells — each cell builds its own machine and engine,
    so no mutable state crosses cells.  [map_cells] executes the cells
    on OCaml 5 domains while preserving the input order of results, so
    a parallel sweep is observationally identical to the sequential
    one: per-cell outputs are byte-identical, only wall-clock changes.

    Scheduling: the calling domain and [domains - 1] spawned ones each
    take the next unclaimed cell from one shared atomic cursor until it
    passes the last cell.  With [domains <= 1] (or at most one cell) no
    domain is spawned and the calling domain runs the cells in input
    order.

    Failure: a raising cell does not abort the sweep; the remaining
    cells still execute, and after the join the exception of the
    {e lowest-indexed} failing cell is re-raised as {!Cell_error} —
    deterministic no matter how the domains interleaved. *)

exception Cell_error of {
  index : int;  (** position of the failing cell in the input list *)
  label : string;  (** cell description, from [?label] *)
  message : string;  (** [Printexc.to_string] of the cell's exception *)
  backtrace : string;
}

val default_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core
    for the rest of the system.  The CLI's [--jobs] default. *)

(** Wall-clock accounting of one sweep, for the "sweep profile"
    footer.  [cells] is in input order. *)
type profile = {
  domains : int;  (** worker domains actually used (1 = the caller alone) *)
  wall_seconds : float;  (** whole-sweep wall clock *)
  cells : (string * float) list;  (** (label, cell wall-clock seconds) *)
}

val map_cells :
  ?domains:int -> ?label:(int -> 'a -> string) -> ('a -> 'b) -> 'a list ->
  'b list
(** [map_cells ?domains ?label f cells] is [List.map f cells], computed
    on [domains] worker domains (default {!default_domains}[ ()]).
    Results are returned in input order.  [label] describes a cell for
    {!Cell_error} and the profile (default ["cell <index>"]).
    @raise Cell_error when at least one cell raises. *)

val map_cells_profiled :
  ?domains:int -> ?label:(int -> 'a -> string) -> ('a -> 'b) -> 'a list ->
  'b list * profile
(** Like {!map_cells}, also returning per-cell timing. *)

val render_profile : profile -> string
(** The sweep-profile footer: cell count, domains, wall clock, the sum
    of per-cell times (sequential-equivalent), speedup ([n/a] when the
    wall clock rounded to zero), per-cell mean/min/p95/max and the
    slowest cell. *)
