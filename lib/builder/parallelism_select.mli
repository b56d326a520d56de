(** Unroll-degree (parallelism) selection for a compute engine.

    MCCM engines unroll three loop dimensions (paper Section II-B):
    filters (or channels for depthwise-dominated engines), OFM height
    and OFM width.  Unroll degrees are kept 7-smooth — every prime
    factor is at most 7 — matching the divisor structure of real CNN
    loop extents so that ceil-division waste stays low.

    The 7-smooth numbers come from one process-wide ascending table,
    shared by every domain and grown on demand (it holds at most the
    75,711 7-smooth ints); lookups in it are binary searches. *)

val smooth_degree : int -> int
(** [smooth_degree n] is the largest 7-smooth number that is at most
    [n], or 1 when [n < 1].  Total on every [int], [max_int] included. *)

val choose : pes:int -> layers:Cnn.Layer.t list -> Engine.Parallelism.t
(** [choose ~pes ~layers] picks a 3-D parallelism whose total degree is
    at most [pes], minimising the summed Eq.-1 cycle count of [layers].

    The unrolled dimensions are (Filters, Height, Width) unless the
    layer list is dominated by depthwise MACs, in which case
    (Channels, Height, Width) is unrolled instead — depthwise layers
    have a filter extent of 1, so filter unrolling would leave the
    engine idle.  Ties prefer a larger first-dimension factor, then a
    larger height factor.  Returns {!Engine.Parallelism.scalar} for an
    empty layer list.

    The search is exact over every 7-smooth (first, height) pair, with
    the largest 7-smooth width that fits.  Layers of equal loop extents
    are priced as one group, and every ceil quotient is computed once
    per candidate degree, so a pair costs one multiply-add per group.
    Results are memoised process-wide by [pes] and the layers' loop
    extents.

    @raise Invalid_argument if [pes < 1]. *)

val cycle_floor : pes:int -> Cnn.Table.t -> int -> int
(** [cycle_floor ~pes table i] is the minimum Eq.-1 cycle count of the
    table's layer [i] over {e every} integer 3-D parallelism of total
    degree at most [pes] — both unroll modes ((Filters, Height, Width)
    and (Channels, Height, Width)), all degrees, not just 7-smooth
    ones.  It therefore lower-bounds the per-layer cycles of any engine
    this module (or the naive-cube ablation) can construct with at most
    [pes] PEs, which makes it the compute-floor primitive of the DSE
    pruning bounds ({!Dse.Bounds}).  Nonincreasing in [pes]; results
    are memoised process-wide by content: [pes] and the layer's loop
    extents.
    @raise Invalid_argument if [pes < 1]. *)

val utilization_ceiling : pes:int -> Cnn.Table.t -> int -> float
(** [utilization_ceiling ~pes table i] is the best PE utilization any
    [pes]-PE engine can reach on layer [i]:
    [macs / (pes * cycle_floor)], clamped to [0, 1].  The compute floor
    in {!Dse.Bounds} is exactly
    [macs / (pes * utilization_ceiling * clock)] seconds. *)

val choose_indices :
  pes:int -> Cnn.Table.t -> int list -> Engine.Parallelism.t
(** [choose_indices ~pes table indices] is [choose ~pes ~layers] for the
    table's layers at [indices], reading extents and MAC counts from the
    precomputed table instead of [Cnn.Layer] accessors.  Both entry
    points build identical loop-extent memo keys, so they share cached
    results and return bit-identical parallelisms; {!choose} is the
    reference the test suite checks this one against. *)
