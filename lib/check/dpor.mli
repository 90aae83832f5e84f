(** Stateless model checking with dynamic partial-order reduction.

    Replaces the brute-force DFS of {!Memsim.Explore} for systematic
    exploration: instead of enumerating every scheduling decision
    sequence, the explorer re-executes the workload under a [Guided]
    policy and only branches where it observed a {e conflict} — two
    steps by different threads touching overlapping byte ranges (at the
    tracking granularity), at least one a write; lock words count as
    writes.  Classic Flanagan–Godefroid DPOR:

    - after each executed step, the latest earlier conflicting step by
      another thread is found and the current thread is added to that
      choice point's {e backtrack set} (all enabled threads, when the
      current thread was not enabled there);
    - {e sleep sets} carry the threads whose next step is independent
      of everything executed since an equivalent trace already covered
      them; backtrack candidates still asleep are skipped, and a run
      whose every enabled thread is asleep is aborted as redundant.

    The root is never a branch point: every thread's first step is its
    start, which has no memory footprint, so no later step races with
    it and the search never backtracks there.

    Each explored schedule is handed to [on_exec] together with the
    value the workload run produced, so a driver can check recovery at
    every interleaving (see {!Driver}).  The explored schedule set
    covers every Mazurkiewicz trace class of the full interleaving
    space: any property that is a function of the conflict order —
    persist dependence graphs and hence recovery verdicts — is
    evaluated on at least one representative of every class. *)

type stats = {
  schedules : int;  (** workload executions run to completion *)
  sleep_skips : int;
      (** backtrack candidates skipped because they were asleep —
          redundant traces avoided without executing anything *)
  sleep_aborts : int;
      (** executions abandoned mid-run with every enabled thread
          asleep (the run could only replay an explored class) *)
  steps : int;  (** scheduling decisions across all executions *)
  complete : bool;
      (** false when [max_schedules] or a [Stop] ended the search *)
}

type decision =
  | Continue
  | Stop  (** abort the exploration (e.g. counter-example found) *)

val explore :
  ?max_schedules:int ->
  on_exec:(Schedule.t -> 'a -> decision) ->
  (Memsim.Machine.policy -> 'a) ->
  stats
(** [explore ~on_exec run] calls [run] once per explored schedule with
    a [Guided] policy; [run] must build a fresh machine with that
    policy, execute it, and return the value passed to [on_exec]
    (alongside the replayable schedule).  The workload must be
    deterministic given the scheduling decisions.

    Conflicts are detected at {!Persistency.Config.default_track_gran},
    the persistency engine's default: a workload explored under a coarser
    [track_gran] could have persistency-conflicting steps treated as
    independent.  [max_schedules] bounds the number of executions
    started (default unlimited); hitting it returns
    [complete = false]. *)
