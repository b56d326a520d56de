(** Random design-space exploration driven by MCCM's fast evaluation
    (paper Use Case 3 / Fig. 10). *)

type evaluated = {
  spec : Arch.Custom.spec;
  metrics : Mccm.Metrics.t;
}

type result = {
  sampled : int;                      (** designs drawn, duplicates included *)
  distinct : int;
      (** distinct designs after deduplication; the dedup ratio is
          [1 - distinct / sampled] *)
  evaluated : evaluated list;
      (** feasible distinct designs, first-occurrence order *)
  front : evaluated Pareto.point list;
      (** throughput-up / buffer-down Pareto front *)
  elapsed_s : float;                  (** wall time of the sweep *)
  stats : Mccm.Eval_session.stats;
      (** counters of every session that evaluated, summed
          ({!Crew.stats}): the caller's session, including what it
          counted before this run, plus each worker sibling's *)
}

val run :
  ?seed:int64 ->
  ?ce_counts:int list ->
  ?domains:int ->
  ?clamp:bool ->
  ?pool:Util.Parallel.Pool.t ->
  ?session:Mccm.Eval_session.t ->
  samples:int ->
  Cnn.Model.t ->
  Platform.Board.t ->
  result
(** [run ~samples model board] draws custom designs uniformly (CE counts
    default to the paper's 2-11), evaluates each distinct design once
    with the analytical model (a duplicate draw is dropped before
    evaluation, so [stats.evaluations] grows by [distinct] at every
    domain count), and
    extracts the throughput/buffer Pareto front.  [evaluated] keeps
    each distinct design's first occurrence, feasible ones only.
    Deterministic for a fixed [seed] (default 42), independent of
    [domains], [pool] and of [session] warmth.

    [domains] (default 1) spreads the evaluation over a {!Crew}: one
    session per pool worker, deterministic contiguous chunks merged in
    draw order.  The whole design set is drawn from a single
    PRNG stream before any evaluation starts, so a given
    [(seed, samples)] pair yields the same designs — and the same
    result, in the same order — for every domain count.  The value is
    clamped to [Domain.recommended_domain_count ()] unless
    [~clamp:false] (oversubscribing cores only adds garbage-collector
    synchronisation); [pool] reuses a caller-owned persistent domain
    pool instead (then [domains]/[clamp] are ignored).

    [session] (default: a fresh one) memoizes evaluation across the
    sweep and across calls — pass one session to successive runs on the
    same (model, board) to keep its caches warm.  A design revisited by
    a later run is served by the session's segment and planning-floor
    caches: it adds no misses to either, so the session does not grow.
    With a multi-worker crew, worker 0 evaluates on [session] and every
    other worker on a cold {!Mccm.Eval_session.sibling} dropped at the
    end, so [session] keeps only worker 0's share of the sweep.
    @raise Invalid_argument if [session] is bound to a different
    model or board ({!Mccm.Eval_session.check}). *)

val improvement_over :
  result -> reference:Mccm.Metrics.t -> (float * float) option
(** [improvement_over r ~reference] summarises Fig. 10's headline: among
    explored designs with throughput at least the reference's, the
    largest buffer reduction; and among all, the largest throughput gain
    at no buffer increase.  Returns
    [(buffer_reduction_frac, throughput_gain_frac)], or [None] when no
    design qualifies on either count. *)
