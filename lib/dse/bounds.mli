(** Tight admissible segment bounds for custom-design pruning.

    A custom spec is a pipelined head (one layer per engine) followed
    by single-CE tail segments, all coarse-grained pipelined, so its
    exact interval is the slowest block and its exact latency the sum
    of blocks.  This module derives per-segment lower bounds on those
    block times straight from the {!Cnn.Table} prefix aggregates — O(1)
    per query after a per-(table, board, CE count) precomputation — by
    combining:

    - a {e quantization floor}: each layer needs at least
      [Builder.Parallelism_select.cycle_floor ~pes] cycles on any
      engine with at most [pes] PEs, evaluated at the PE cap
      [dsps - ces + 1] (segments) or the layer's own proportional share
      ceiling [Builder.Pe_allocation.share_upper_bound] (head engines,
      whose builder workload is exactly one layer);
    - an {e allocation floor}: a segment with [m] MACs runs on an
      engine holding at most [min (cap, 2 + spare * m / total)] PEs
      (integer division — the builder's own share ceiling, nondecreasing
      in [m]), so it needs at least [m] over that many cycles;
    - the {e mediant floor} [total_macs / dsps] on the whole interval
      (work conservation over all engines);
    - the {e memory floor}: weights plus network input and output
      cross the off-chip port at least once per image.

    {b Admissibility contract.}  For every design the builder produces
    under the default build options (proportional PE allocation; any
    parallelism or buffer mode), each query below is at most (cycles /
    latency) or at least (throughput) the exact evaluated value, so
    pruning on these bounds never changes the exhaustive search's
    winner.  The [`Balanced] PE-allocation ablation can exceed
    an engine's proportional share; bounds are not admissible for it.
    The QCheck2 suite in [test/test_bounds.ml] exercises every clause
    of this contract over random model/board/spec draws. *)

type t
(** Bound context for one (table, board) pair.  Per-CE-count floors are
    derived lazily and memoised; the memo is mutex-protected, so a
    context may be shared across domains (warm the CE counts you need
    before forking to keep the parallel phase read-only). *)

type ctx
(** Per-CE-count floor tables (PE cap, quantization prefix sums, head
    share ceilings) — the unit of {!segment_ii_floor} and friends. *)

val create : Cnn.Table.t -> Platform.Board.t -> t
(** O(1); the per-CE-count work happens on first {!context} use
    (O(n sqrt extents) per CE count). *)

val context : t -> ces:int -> ctx
(** The floor tables for designs with exactly [ces] engines.
    @raise Invalid_argument if [ces < 2]. *)

val table : t -> Cnn.Table.t
val clock_hz : t -> float

val mem_floor_s : t -> float
(** Off-chip traffic floor in seconds per image: (weights + network
    input + network output) bytes over bandwidth.  Lower-bounds the
    exact [Mccm.Evaluate] [ii_memory_s] of every design. *)

val global_ii_cycles : t -> float
(** [total_macs / dsps] — no schedule beats work conservation. *)

(** {1 O(1) per-segment floors}

    All in cycles.  Each is a lower bound on the corresponding exact
    block quantity of any design containing that block (see the
    admissibility contract above). *)

val head_ii_floor : ctx -> f:int -> float
(** Lower bound on the interval (bottleneck-engine busy time) of the
    pipelined head over layers [0, f): the largest per-layer floor at
    each layer's share ceiling, and the head mean over its summed PE
    ceiling.  Nondecreasing in [f]. *)

val segment_ii_floor : ctx -> first:int -> last:int -> float
(** Lower bound on a single-CE tail segment's latency (= its interval):
    summed quantization floors at the smallest grid level covering the
    segment's share ceiling, and the allocation floor of its MAC total.
    Always at least {!segment_ii_floor_monotone}.  Monotone under
    extension while the share level is unchanged; a level jump may
    relax the quantization term by up to one grid step (~10%), never
    below the monotone core. *)

val segment_ii_floor_monotone : ctx -> first:int -> last:int -> float
(** The provably monotone core of {!segment_ii_floor}: cap-level
    quantization sum plus the allocation floor.  Growing [last] or
    shrinking [first] never lowers it (the quantization term gains
    nonnegative summands; the allocation floor is nondecreasing in the
    MAC total). *)

val suffix_ii_floor : ctx -> first:int -> segments:int -> float
(** Lower bound on the {e slowest} of [segments] tail segments
    partitioning layers [first ..] — however the partition is chosen:
    the largest cap-level layer floor in the suffix, the allocation
    floor of its widest layer, and the means (summed floors, suffix
    MACs) over [segments].  At most [max segment_ii_floor] of every
    concrete split.  Only {!partial_throughput_bound} and the tests use
    it; kept with it because [perfbench/] times that bound. *)

val suffix_latency_floor : ctx -> first:int -> float
(** Lower bound on the {e summed} latency of the tail segments over
    layers [first ..], independent of how many: summed cap-level floors
    and the (subadditive) allocation floor of the whole suffix.  Only
    {!partial_latency_bound} and the tests use it; kept with it because
    [perfbench/] times that bound. *)

(** {1 Composed partial bounds}

    Optimistic scores of every completion of a partial spec.  No search
    uses them: they are kept because [perfbench/] times them (its traced
    [dse.bound_us]), and [test/test_bounds.ml] keeps checking the floors
    they are built from.  Remove them with the next change to the
    benchmark. *)

val partial_throughput_bound :
  ctx -> worst_cycles:float -> first:int -> segments:int -> float
(** Optimistic throughput (images/s, admissible upper bound) of every
    completion of a partial spec whose fixed blocks' floors max to
    [worst_cycles] and whose remaining layers [first ..] must form
    [segments] segments.  Composes {!suffix_ii_floor} with the mediant
    and memory floors.  Every underlying floor carries a [1 - 1e-9]
    rounding guard (the exact evaluator's per-layer float sums can
    round below an unguarded integer floor), so the bound can exceed
    the exact best completion by at most one part in 1e9 — admissible
    always. *)

val partial_latency_bound :
  ctx -> latency_cycles:float -> sum_sqrt_macs:float -> first:int -> float
(** Optimistic latency (seconds, admissible lower bound) of every
    completion: fixed-block floor sum [latency_cycles] plus
    {!suffix_latency_floor}, the Cauchy-Schwarz PE-allocation floor
    ((sum of block sqrt-MACs)^2 over board peak — [sqrt] of the suffix
    MACs lower-bounds any split's contribution), and the memory floor,
    with a [1 - 1e-9] rounding slack. *)

(** {1 Whole-spec bounds}

    Each reads the spec in row [i] of a {!Space.Flat.buf} of [width]
    slots in place, with no allocation, under the [ctx] for the spec's
    CE count (pass [context t ~ces] once per scan). *)

val compute_ii_floor_cycles_flat :
  ctx -> Space.Flat.buf -> width:int -> int -> float
(** The compute side of the spec's interval floor, in cycles: max of
    the head and segment floors and {!global_ii_cycles}.  Divided by
    {!clock_hz}, lower-bounds the exact [Mccm.Evaluate] [ii_compute_s]. *)

val throughput_upper_bound_flat :
  ctx -> Space.Flat.buf -> width:int -> int -> float
(** Admissible (never below any achievable value) throughput bound,
    images/s. *)

val latency_lower_bound_flat :
  ctx -> Space.Flat.buf -> width:int -> int -> float
(** Admissible (never above any achievable value) latency bound,
    seconds. *)
