(** Exhaustive and guided exploration complements to random sampling.

    Random sampling (the paper's Fig. 10) covers the huge spaces; when the
    space slice is small — a fixed CE count with few tail segments — it can
    be enumerated exactly, and a promising design can be refined by local
    search over its boundaries (the paper's "take the most promising
    architectures as starting points ... explore architectures that
    mitigate these bottlenecks"). *)

val enumerate_specs :
  num_layers:int -> ces:int -> max_specs:int -> Arch.Custom.spec list
(** [enumerate_specs ~num_layers ~ces ~max_specs] lists every custom spec
    with exactly [ces] engines, in lexicographic order, stopping after
    [max_specs] (the caller bounds the work; the spaces explode).
    @raise Invalid_argument if [ces < 2]. *)

val exhaustive :
  ?max_specs:int ->
  ?session:Mccm.Eval_session.t ->
  ?domains:int ->
  ?clamp:bool ->
  ?pool:Util.Parallel.Pool.t ->
  ces:int ->
  Cnn.Model.t ->
  Platform.Board.t ->
  Explore.evaluated list
(** [exhaustive ~ces model board] evaluates every (up to [max_specs],
    default 20000) custom design with exactly [ces] engines; feasible
    ones, in enumeration order.  Specs are enumerated straight into an
    unboxed {!Space.Flat} buffer and decoded per evaluation.  [session]
    (default: a fresh one) memoizes segment terms across the
    lexicographic scan — neighbouring specs share nearly all blocks —
    and across calls; results are bit-identical with or without it.
    [domains] (default 1) runs the scan on a {!Crew}: one warm session
    fork per pool worker (after a sequential strided warm-up pass),
    deterministic contiguous chunks merged in order, forks absorbed at
    the end.  [domains] is clamped to [Domain.recommended_domain_count]
    unless [~clamp:false]; [pool] reuses a caller-owned domain pool
    (then [domains]/[clamp] are ignored).  The result is identical for
    every domain count.
    @raise Invalid_argument if [session] is bound to a different model
    or board ({!Mccm.Eval_session.check}). *)

type objective = [ `Throughput | `Latency ]

type strategy = [ `Auto | `Best_first | `Scan ]
(** How {!exhaustive_best} walks the space.  [`Scan] materialises the
    spec list and scans it in deterministic contiguous chunks (the only
    strategy that uses [domains]).  [`Best_first] runs the sequential
    branch-and-bound: partial specs ordered by their composed optimistic
    bound ({!Bounds.partial_throughput_bound} /
    {!Bounds.partial_latency_bound}), so hopeless subtrees die before
    their specs are ever materialised.  [`Auto] (the default) picks
    [`Best_first] when pruning is on and a single domain was requested,
    [`Scan] otherwise.  All strategies return the same winner. *)

type search_stats = {
  enumerated : int;      (** specs in scope (after [max_specs]) *)
  evaluated : int;       (** specs actually run through the model *)
  pruned : int;          (** specs skipped by the admissible bound *)
  nodes : int;           (** branch-and-bound nodes popped (0 for scans) *)
  domains_used : int;
}

type bounds = Bounds.t
(** Precomputed bound context for one (model table, board) pair — see
    {!Bounds}.  Kept as an alias (with the constructors below) for the
    callers of the pre-[Bounds] API. *)

val bounds : Cnn.Table.t -> Platform.Board.t -> bounds
(** [Bounds.create]. *)

val throughput_upper_bound : bounds -> Arch.Custom.spec -> float
(** [Bounds.throughput_upper_bound]: admissible (never below any
    achievable value) throughput bound for a custom spec, images/s. *)

val latency_lower_bound : bounds -> Arch.Custom.spec -> float
(** [Bounds.latency_lower_bound]: admissible (never above any
    achievable value) latency bound, seconds. *)

val exhaustive_best :
  ?max_specs:int ->
  ?session:Mccm.Eval_session.t ->
  ?domains:int ->
  ?clamp:bool ->
  ?pool:Util.Parallel.Pool.t ->
  ?prune:bool ->
  ?strategy:strategy ->
  objective:objective ->
  ces:int ->
  Cnn.Model.t ->
  Platform.Board.t ->
  Explore.evaluated option * search_stats
(** [exhaustive_best ~objective ~ces model board] returns the first
    feasible spec (in enumeration order) attaining the best objective —
    highest throughput or lowest latency — plus search statistics.
    [prune] (default true) skips specs (and, under [`Best_first], whole
    subtrees of partial specs) whose admissible bound cannot strictly
    beat the running incumbent; because the bounds are admissible and
    acceptance requires strict improvement (ties broken towards the
    earlier enumeration rank), the returned design is bit-identical
    across [prune], [strategy], [domains] and [pool] choices.  The
    [`Scan] path enumerates into a {!Space.Flat} buffer, prunes with
    the allocation-free flat bounds (ctx hoisted out of the loop) and
    decodes only surviving rows; with [pool] it runs on the caller's
    persistent domain pool ([`Auto] then picks [`Scan]).  The bounds
    read [session]'s {!Cnn.Table}.
    @raise Invalid_argument if [session] is bound to a different model
    or board. *)

type step = {
  moved : string;                 (** human-readable description *)
  spec : Arch.Custom.spec;
  metrics : Mccm.Metrics.t;
}

val neighbours :
  num_layers:int -> Arch.Custom.spec -> (string * Arch.Custom.spec) list
(** [neighbours ~num_layers spec] is the single-move neighbourhood
    {!local_search} climbs over — every boundary shift by one layer,
    pipelined-depth change by one, widest-tail-segment split and
    single-boundary merge that stays a valid spec — each with a
    human-readable move description. *)

val local_search :
  objective:(Mccm.Metrics.t -> float) ->
  ?max_steps:int ->
  ?session:Mccm.Eval_session.t ->
  ?domains:int ->
  ?clamp:bool ->
  ?pool:Util.Parallel.Pool.t ->
  ?bound:(Arch.Custom.spec -> float) ->
  Cnn.Model.t ->
  Platform.Board.t ->
  Arch.Custom.spec ->
  step list
(** [local_search ~objective model board seed] hill-climbs from [seed],
    at each step trying every {!neighbours} move, keeping the neighbour
    that most improves [objective] (higher is better).  Returns the
    improvement trajectory, seed first; stops at a local optimum or
    after [max_steps] (default 25) moves.  [session] (default: a fresh
    one) memoizes evaluation — a move touches at most two blocks, so
    only those are recomputed; results are bit-identical with or
    without it.  [domains] (default 1, clamped like {!exhaustive})
    evaluates each step's neighbourhood on one {!Crew} kept for the
    whole climb — domains spawn and sessions fork once per search, not
    once per step; [pool] reuses a caller-owned domain pool across
    searches.  [bound] (an admissible upper bound on the objective's
    score, e.g. {!throughput_upper_bound} partially applied) skips
    neighbours that cannot strictly beat the current spec.  None of
    these change the trajectory.
    @raise Invalid_argument if [session] is bound to a different model
    or board. *)
