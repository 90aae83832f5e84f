(** Litmus tests: small fixed programs with exhaustively-checked
    outcome sets, under the machine configurations
    (consistency model x Px86 persistence) and the epoch persistency
    engine.

    Each test declares the exact set of allowed outcomes — an outcome
    combines final register values, final memory values, and {e
    persisted} values (the value a variable holds in a legal crash
    state, via the recovery observer) — separately for SC, TSO with
    synchronous Px86, and (optionally) TSO with the buffered
    persistence machine.  {!check} explores every interleaving
    (brute-force or DPOR), for TSO including every store-buffer drain
    interleaving and for the buffered machine every persistence-buffer
    drain interleaving, collects the observed outcome set and compares
    it against the declaration in both directions: every allowed
    outcome must be observed, nothing outside the allowed set may
    appear, and no declared-forbidden outcome may show up.  The classic
    x86 shapes (SB, MP, LB, 2+2W, CoRR, n6, ...), Px86 persist-order
    shapes (clflushopt/clwb + sfence) and buffered-persistency shapes
    (asynchronous drains, fence frontiers, RMW-as-fence) are in
    {!suite}. *)

type instr =
  | St of string * int  (** store constant to variable *)
  | Ld of string * string  (** load variable into register *)
  | Flush of string  (** clflushopt the variable's line *)
  | Clwb of string
  | Sfence
  | Mfence
  | Pbarrier  (** the paper's persist barrier *)
  | Rmwi of string  (** locked fetch-add 1 on the variable *)

type obs =
  | Reg of int * string  (** register [r] of thread [t], shown [t:r] *)
  | Final of string  (** variable's final memory value, shown [v] *)
  | Persisted of string
      (** variable's value in a legal crash state, shown [v*]; a test
          observing persisted values yields one outcome per legal cut
          of each explored trace's persist graph *)

type expect = {
  allowed : string list;  (** exactly the reachable outcomes *)
  forbidden : string list;
      (** notable impossible outcomes, asserted never observed (must
          be disjoint from [allowed]) *)
}

type test = {
  name : string;
  doc : string;
  vars : string list;  (** 8-byte persistent variables, zero-initialized *)
  threads : instr list list;  (** thread [i] gets machine tid [i] *)
  observe : obs list;  (** outcome rendering order *)
  sc : expect;
  tso : expect;
  tso_buf : expect option;
      (** expectation under the TSO + buffered-persistence machine;
          [None] means identical to [tso] (asynchronous drains change
          nothing for this shape) *)
}

val suite : test list
(** The built-in programs (≥15). *)

val find : string -> test option

val tso_weaker : test -> bool
(** True when the test's TSO allowed set strictly contains its SC set —
    the witnesses that TSO actually weakens the model. *)

val buffered_weaker : test -> bool
(** True when the test's TSO-buffered allowed set strictly contains its
    TSO-sync set — the witnesses that the persistence buffer actually
    weakens the persistency model. *)

val one : (obs * int) list -> string
(** Render an outcome, e.g. [one [(Reg (0, "r0"), 1)]] = ["0:r0=1"]. *)

val outcomes : (obs * int list) list -> string list
(** Cartesian product of per-observable domains. *)

val validate : test -> unit
(** @raise Invalid_argument on duplicate variables, overlapping
    allowed/forbidden sets, an SC-allowed outcome missing from the TSO
    allowed set (SC executions are TSO executions), or a TSO-allowed
    outcome missing from the TSO-buffered allowed set (synchronous
    executions are buffered executions with eager drains). *)

val exec_thread :
  (int * string, int) Hashtbl.t ->
  (string -> int) ->
  int ->
  instr list ->
  unit ->
  unit
(** [exec_thread regs var_addr tid instrs] is the thread body a litmus
    thread runs: each instruction becomes the corresponding machine
    operation, loads landing in [regs] under key [(tid, reg)].  Exposed
    so generated programs (fuzzing) can reuse the interpreter. *)

type mconfig = Memsim.Machine.mconfig
(** A machine configuration: consistency model paired with the Px86
    persistence semantics; the corpus is checked under each of
    {!Memsim.Machine.all_configs}.  {!check} configures the persistency
    engine to match ({!Persistency.Config.px86}). *)

val default_cfg : Persistency.Config.t
(** Epoch mode, 8-byte granularities, coalescing off, graph recording
    on — the engine configuration used to judge persisted values under
    synchronous Px86. *)

val buffered_cfg : Persistency.Config.t
(** [default_cfg] with [px86 = Px86_buffered] — paired with the
    buffered-persistence machine. *)

val run_one :
  ?cfg:Persistency.Config.t ->
  ?verify:bool ->
  config:mconfig ->
  test ->
  Memsim.Machine.policy ->
  string list
(** Execute the test once under the given scheduling policy; returns
    the outcome(s) that execution justifies (one per legal crash state
    when persisted values are observed).  [verify] additionally records
    the trace and cross-checks the engine's persist graph against
    {!Persistency.Oracle.verify_engine}, failing loudly on divergence. *)

type method_ = Brute | Dpor

val method_name : method_ -> string

type result = {
  test : test;
  config : mconfig;
  how : method_;
  observed : string list;  (** sorted observed outcome set *)
  missing : string list;  (** declared allowed, never observed *)
  unexpected : string list;  (** observed, not declared allowed *)
  forbidden_hit : string list;  (** declared forbidden, observed *)
  schedules : int;  (** executions (brute: interleavings; DPOR: schedules) *)
  complete : bool;  (** exploration finished within the limit *)
}

val pass : result -> bool
(** Complete, nothing missing, nothing unexpected, no forbidden hit. *)

val check :
  ?cfg:Persistency.Config.t ->
  ?verify:bool ->
  ?how:method_ ->
  ?limit:int ->
  config:mconfig ->
  test ->
  result
(** Exhaustively explore the test under [config] (default [how] is
    [Brute], default [limit] 200_000 executions) and judge the observed
    outcome set against the test's expectation for that configuration. *)
