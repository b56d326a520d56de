(** Analytical model of the single-CE building block
    (paper Section IV-A, Eq. 1, 4 and 6).

    A single-CE block processes its layer range to completion, one layer
    at a time, reusing one buffer.  Latency is the sum of per-layer Eq. 1
    cycle counts; off-chip accesses follow Eq. 6 — when a layer's IFM and
    OFM fit in the block's FM capacity the layer costs exactly its weights,
    otherwise the cheaper of the output-stationary local-input-stationary
    and local-weight-stationary streaming schemes is charged.  Whether
    each layer's OFM stays resident for its successor is not decided
    greedily: the evaluator enumerates the legal per-layer buffering
    decisions and charges the cheapest chain (a two-state dynamic
    program), which keeps the modelled traffic monotone in the block's
    FM capacity. *)

type layer_result = {
  layer_index : int;
  compute_cycles : int;        (** Eq. 1 *)
  accesses : Access.t;         (** Eq. 6 for this layer *)
  ifm_on_chip : bool;          (** whether the IFM was already on-chip *)
  ofm_stays_on_chip : bool;    (** whether the OFM remains for the next layer *)
}
(** One layer of the chain the block is charged for: see {!trace}. *)

type result = {
  compute_cycles : int;        (** sum over layers *)
  accesses : Access.t;         (** sum over the charged chain *)
  compute_s : float;
  memory_s : float;
  latency_s : float;           (** max(compute, memory) per layer, summed *)
  utilization : float;         (** MAC-weighted PE utilization *)
  cap_lo : int;
  cap_hi : int;
      (** the inclusive interval of [fm_capacity_bytes] values over
          which every other field is bit-identical *)
}
(** A block aggregate: no per-layer list, so it is what {!Seg_cache}
    keeps.  The evaluator reads its plan only through the capacity, and
    only in threshold tests and ceiling divisions, so the result is
    piecewise constant in it; [(cap_lo, cap_hi)] is the piece containing
    [plan.fm_capacity_bytes] (conservatively narrowed — every branch
    taken and quotient computed is pinned).  {!Seg_cache} uses it so the
    byte-granular churn of the planner's proportional grants does not
    defeat segment-level memoization. *)

val evaluate :
  table:Cnn.Table.t ->
  board:Platform.Board.t ->
  engine:Engine.Ce.t ->
  plan:Builder.Buffer_alloc.single_plan ->
  first:int ->
  last:int ->
  input_on_chip:bool ->
  output_on_chip:bool ->
  unit ->
  result
(** [evaluate] walks layers [first..last] of [table]'s model on
    [engine], reading every per-layer quantity from [table].
    [input_on_chip] tells whether the block's input FMs arrive through an
    on-chip inter-segment buffer; [output_on_chip] whether its final OFM
    leaves through one.  Boundary FM traffic is charged here (a load when
    the input is off-chip, a store when the output is), so composing
    blocks sums accesses without double counting.

    The DP keeps only running totals per state, so a call allocates a
    fixed amount whatever the segment length.  Ties go to the
    incumbent: decisions from the spilled-IFM state are offered before
    those from the resident-IFM state, each in a fixed order, and a
    later offer replaces a state's chain only when strictly cheaper;
    the spilled-OFM final state wins a final tie.
    @raise Invalid_argument if [first > last]. *)

val trace :
  table:Cnn.Table.t ->
  board:Platform.Board.t ->
  engine:Engine.Ce.t ->
  plan:Builder.Buffer_alloc.single_plan ->
  first:int ->
  last:int ->
  input_on_chip:bool ->
  output_on_chip:bool ->
  unit ->
  result * layer_result list
(** [trace] runs the same DP as {!evaluate}, also recording per-layer
    back-pointers, and returns the aggregate together with the charged
    chain, one entry per layer in order.  The entries' accesses sum to
    the aggregate's.  For per-layer reports and the simulator, not for
    hot paths. *)
