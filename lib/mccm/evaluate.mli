(** Bottom-up composition of block models into a full multiple-CE
    accelerator evaluation (paper Section IV-B, Eq. 8 and 9).

    Latency composes as the sum of block latencies (each input flows
    through the blocks in order, whether or not the blocks overlap on
    different inputs).  Throughput composes as the inverse of the slowest
    stage: with inter-segment (coarse-grained) pipelining each block is a
    stage working on its own input; without it the whole schedule repeats
    per input — except that a lone pipelined-CEs block overlaps successive
    inputs at tile granularity (Eq. 3).  A shared off-chip memory port
    additionally bounds throughput by total traffic over bandwidth.
    Buffers and accesses come from the buffer plan and the block models
    (Eq. 8/9: inter-segment interfaces are double-buffered on-chip or
    spilled). *)

type block_eval = {
  block_index : int;
  latency_s : float;          (** one-input latency through this block *)
  ii_s : float;               (** the block's initiation interval *)
  accesses : Access.t;
  segments : Breakdown.segment list;
}

type t = {
  metrics : Metrics.t;
  breakdown : Breakdown.t;
  blocks : block_eval list;
  initiation_interval_s : float;
      (** steady-state spacing between completed inputs — the inverse of
          throughput, and the paper's second ("batch") latency
          definition: time per input when processing a batch *)
  ii_compute_s : float;
      (** the compute side of the interval (slowest stage, or the whole
          schedule without coarse pipelining) before the memory-port
          bound; [initiation_interval_s = max ii_compute_s ii_memory_s].
          Exposed so admissible compute floors (e.g. [Dse.Bounds]) can
          be property-tested against the exact value they bound rather
          than only against the combined interval *)
  ii_memory_s : float;
      (** the shared-port side: total off-chip traffic over bandwidth —
          the exact value the DSE memory floor lower-bounds *)
}

val run : ?cache:Seg_cache.t -> ?table:Cnn.Table.t -> Builder.Build.t -> t
(** [run built] evaluates a built accelerator analytically, reading
    every per-layer quantity from [built.table].  [cache] memoizes
    per-segment model results across calls sharing a (model, board)
    pair — see {!Seg_cache}; results are bit-identical with and without
    it.  [table], when given, must be [built.table] itself.  Most
    callers want {!Eval_session} instead of passing a cache directly.
    @raise Invalid_argument if [table] is another table. *)

val evaluate : Cnn.Model.t -> Platform.Board.t -> Arch.Block.arch -> t
(** [evaluate model board archi] builds with the Multiple-CE Builder and
    runs the cost model — the methodology's end-to-end entry point. *)

val metrics : Cnn.Model.t -> Platform.Board.t -> Arch.Block.arch -> Metrics.t
(** Shorthand for [(evaluate ...).metrics]. *)
