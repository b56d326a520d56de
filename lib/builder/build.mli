(** End-to-end construction of a concrete accelerator instance.

    [build] maps an abstract architecture (blocks over layer ranges)
    onto a board: it distributes the DSP budget over engines
    proportionally to their MAC workload, picks each engine's
    parallelism for the layers it will run, assigns dataflows
    (weight-stationary inside pipelined blocks, output-stationary for
    single-CE blocks, per paper Section III-B), and sizes every on-chip
    buffer via {!Buffer_alloc}. *)

type options = {
  parallelism : [ `Optimized | `Naive ];
      (** [`Optimized] searches 7-smooth degrees minimising Eq.-1
          cycles; [`Naive] uses the largest cube fitting the PE count *)
  pe_allocation : [ `Proportional | `Balanced ];
      (** [`Proportional] splits PEs by MACs; [`Balanced] additionally
          iterates on modelled engine cycles to shrink the busiest/
          laziest spread, keeping only improving redistributions *)
  buffers : [ `Greedy | `Minimal ];
      (** [`Greedy] spends leftover BRAM on retention/capacity/
          inter-segment buffers; [`Minimal] keeps the floor plan *)
}

val default_options : options
(** [{ parallelism = `Optimized; pe_allocation = `Proportional;
      buffers = `Greedy }] *)

type built_block =
  | Built_single of { engine : Engine.Ce.t; first : int; last : int }
  | Built_pipelined of {
      engines : Engine.Ce.t array;
      first : int;
      last : int;
    }

type t = {
  model : Cnn.Model.t;
  table : Cnn.Table.t;
      (** [model]'s per-layer table: the only per-layer source the
          planner and the cost models read *)
  board : Platform.Board.t;
  archi : Arch.Block.arch;
  engines : Engine.Ce.t array;  (** all engines, indexed by CE id - 1 *)
  blocks : built_block array;   (** one per architecture block, in order *)
  plan : Buffer_alloc.t;
}

type cache
(** Build-time memo: {!Buffer_alloc} planning floors plus the
    parallelism chosen per CE layer assignment.  A cache must only be
    used with the one (model, board, options) triple it was created
    for — {!Mccm.Eval_session} enforces that scoping.  Results are
    bit-identical with and without it.  Not thread-safe: a domain uses
    only its own session's cache. *)

val create_cache : unit -> cache

val plan_cache : cache -> Buffer_alloc.cache
(** The embedded planning-floor cache (for its hit/miss counters). *)

val build :
  ?options:options ->
  ?cache:cache ->
  ?table:Cnn.Table.t ->
  Cnn.Model.t ->
  Platform.Board.t ->
  Arch.Block.arch ->
  t
(** [build model board archi] instantiates [archi] on [board].  Engine
    ids are 1-based CE indices; the PE allocations sum to exactly
    [board.dsps].  [cache] memoizes {!Buffer_alloc} planning floors and
    per-CE parallelism choices across calls that share (model, board,
    options); results are bit-identical with and without it.  [table]
    is reused as the build's {!Cnn.Table} when given (sessions build
    theirs once); otherwise one is built from [model].
    @raise Invalid_argument if the architecture has more engines than
    the board has DSPs, or if [table] was built from another model
    value. *)

val engine_for_layer : t -> int -> Engine.Ce.t
(** [engine_for_layer t i] is the engine that runs layer [i]: the
    block's engine for single-CE blocks, the round-robin slot for
    pipelined blocks.
    @raise Invalid_argument if no block covers layer [i]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary: architecture, board, engines, buffer budget. *)
