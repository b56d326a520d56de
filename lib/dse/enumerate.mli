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

type search_stats = {
  enumerated : int;      (** specs in scope (after [max_specs]) *)
  evaluated : int;       (** specs actually run through the model *)
  pruned : int;          (** specs skipped by the admissible bound *)
  nodes : int;
      (** always 0.  Kept because [perfbench/] reads it; remove it with
          the next change to the benchmark. *)
  domains_used : int;
}

val exhaustive_best :
  ?max_specs:int ->
  ?session:Mccm.Eval_session.t ->
  ?domains:int ->
  ?clamp:bool ->
  ?pool:Util.Parallel.Pool.t ->
  ?prune:bool ->
  ?strategy:[ `Scan ] ->
  objective:objective ->
  ces:int ->
  Cnn.Model.t ->
  Platform.Board.t ->
  Explore.evaluated option * search_stats
(** [exhaustive_best ~objective ~ces model board] returns the first
    feasible spec (in enumeration order) attaining the best objective —
    highest throughput or lowest latency — plus search statistics.  It
    enumerates the specs into a {!Space.Flat} buffer and scans it in
    deterministic contiguous chunks, one per {!Crew} worker.  [prune]
    (default true) skips a spec whose admissible bound
    ({!Bounds.throughput_upper_bound_flat} /
    {!Bounds.latency_lower_bound_flat}, read off the row in place)
    cannot strictly beat the chunk's running incumbent, and decodes only
    the rows that survive.  Because the bounds are admissible and
    acceptance requires strict improvement (ties go to the earlier
    enumeration rank, and chunk winners merge in chunk order), the
    returned design is bit-identical across [prune], [domains] and
    [pool].  [domains], [clamp] and [pool] are as for {!exhaustive}.
    The bounds read [session]'s {!Cnn.Table}.  [strategy] is ignored:
    it is kept because [perfbench/] passes it; remove it with the next
    change to the benchmark.
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
    searches.  None of these change the trajectory.
    @raise Invalid_argument if [session] is bound to a different model
    or board. *)
