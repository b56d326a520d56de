(** Content-keyed memo tables for per-segment model results.

    A cache stores {!Single_ce_model.result} block aggregates and
    {!Pipelined_model.result} values keyed by everything those models
    read: the layer range, the engine signatures (PE count, parallelism
    factors, dataflow — the display-only CE id is excluded), the
    boundary on-chip flags, and the block's buffer-plan slice (in full
    for pipelined blocks; as a capacity-validity interval for single-CE
    blocks, which read the plan only through [fm_capacity_bytes]).  The model and
    board are deliberately absent from keys: a cache must only ever be
    used with the one (model, board) pair it was created for, which
    makes the layer range a complete proxy for layer contents.
    {!Eval_session} enforces that scoping — use it rather than this
    module unless you are extending the evaluator itself.

    Cached results are immutable and shared; hits are bit-identical to
    recomputation by construction (keys carry full structural payloads,
    so fingerprint collisions cannot alias distinct keys).  A cache is
    not thread-safe: a domain uses only its own session's cache. *)

type t

val create : unit -> t

val single :
  t ->
  engine:Engine.Ce.t ->
  cap:int ->
  first:int ->
  last:int ->
  input_on_chip:bool ->
  output_on_chip:bool ->
  (unit -> Single_ce_model.result) ->
  Single_ce_model.result
(** [single t ~cap ... compute] returns a memoized result valid at FM
    capacity [cap], or runs [compute] once ({!Single_ce_model.evaluate})
    and stores its result.  The single-CE evaluator is piecewise constant
    in its capacity, so an entry per (layer range, engine, boundary
    flags) is a list of block aggregates, each valid on its own
    [(cap_lo, cap_hi)] piece — a hit only needs [cap] to land inside a
    recorded piece, which makes the cache immune to the byte-level
    capacity churn of the planner's global proportional grants.  An
    aggregate holds the block's cycles, accesses, compute/memory/latency
    seconds, utilization and interval, and no per-layer data, so a
    piece costs a fixed number of words however long its segment
    ({!Single_ce_model.trace} recomputes the per-layer chain on
    demand). *)

val pipelined :
  t ->
  engines:Engine.Ce.t array ->
  plan:Builder.Buffer_alloc.pipelined_plan ->
  first:int ->
  last:int ->
  input_on_chip:bool ->
  output_on_chip:bool ->
  (unit -> Pipelined_model.result) ->
  Pipelined_model.result

val hits : t -> int
val misses : t -> int

val single_counts : t -> int * int
(** Hit/miss counts for the single-CE table alone. *)

val pipelined_counts : t -> int * int
(** Hit/miss counts for the pipelined table alone. *)
