(** Per-block BRAM plans (paper Eq. 4--9).

    The planner decides, for a concrete architecture on a concrete
    board, how the on-chip memory is partitioned: per single-CE block a
    double-buffered weight tile and a feature-map capacity (Eq. 4/6);
    per pipelined block double-buffered FM tile buffers, which layers
    keep their weights resident and which stream them per tile (Eq. 7),
    and a staging buffer for the streamed ones; plus optional
    inter-segment double buffers between adjacent blocks (Eq. 8/9).

    All byte figures use the board's [bytes_per_element]. *)

type single_plan = {
  weights_tile_bytes : int;
      (** double-buffered resident weight tile (2 x largest filter-group
          tile over the block's layers) *)
  fm_capacity_bytes : int;
      (** on-chip feature-map capacity granted to the block; between the
          row-streaming minimum and [fm_ideal_bytes] *)
  fm_ideal_bytes : int;
      (** capacity that would hold the block's largest per-layer FM
          residency entirely on chip (Eq. 4 first term) *)
}

type pipelined_plan = {
  tiles_per_image : int;  (** tile count of the block's first layer *)
  width_split : int;      (** vertical FM cuts; 1 = row bands only *)
  tile_rows : int array;  (** OFM rows per tile, one entry per layer *)
  fm_tile_bytes : int array;  (** single-copy FM tile bytes per layer *)
  weights_retained : bool array;
      (** true = weights stay resident all image; false = streamed per
          tile (Eq. 7 re-fetches them [tiles] times) *)
  weights_staging_bytes : int;
      (** double-buffered staging for streamed weights; 0 when every
          layer is retained *)
}

type block_plan =
  | Plan_single of single_plan
  | Plan_pipelined of pipelined_plan

type t = {
  block_plans : block_plan array;  (** one entry per architecture block *)
  inter_seg_on_chip : bool array;
      (** boundary [i] (between blocks [i] and [i+1]): true = the
          boundary OFM is double-buffered on chip (Eq. 8) *)
  inter_seg_bytes : int array;  (** single-copy boundary OFM bytes *)
  total_bytes : int;  (** everything above, summed the way Eq. 9 counts *)
  feasible : bool;    (** [total_bytes <= board.bram_bytes] *)
}

type cache
(** Memo table for the per-block planning floors — the pipelined
    tile-count/width-split search (the planner's hot spot) and the
    single-CE weight-tile/FM bounds.  Both are pure functions of the
    block's layer range and its engines' signatures (PE count,
    parallelism factors, dataflow) for a fixed (model, board) pair, so a
    cache must only ever be used with the (model, board) it first saw;
    {!Mccm.Eval_session} enforces this scoping.  The greedy passes that
    spend leftover BRAM across blocks remain per-architecture and are
    never cached.  A cache is not thread-safe: a domain uses only its
    own session's cache. *)

val create_cache : unit -> cache

val cache_hits : cache -> int
val cache_misses : cache -> int

val plan :
  ?minimal:bool ->
  ?cache:cache ->
  table:Cnn.Table.t ->
  Platform.Board.t ->
  Arch.Block.arch ->
  engines:Engine.Ce.t array ->
  t
(** [plan ~table board archi ~engines] sizes every buffer for the
    model [table] was built from, reading every per-layer quantity from
    the table.  Starting
    from the floor (row-streaming FM minima, nothing retained, no
    inter-segment buffers), leftover BRAM is spent greedily: first on
    retaining multi-tile pipelined weights (ordered by streaming traffic
    saved per buffer byte), then on growing single-CE FM capacities
    toward their ideals (proportional to deficit), then on
    inter-segment double buffers, then on retaining the remaining
    streamed weights.  With [minimal:true] the floor plan is returned
    unchanged.  The plan never exceeds the BRAM budget unless even the
    floor does not fit, in which case [feasible] is [false].

    [cache] memoizes the per-block floors across calls; plans produced
    with and without a cache are bit-identical (the cache only skips
    recomputing pure functions).

    [engines] must be the architecture's engines indexed by CE id
    (as produced by {!Build.build}). *)

val audit :
  Cnn.Model.t -> Platform.Board.t -> Arch.Block.arch -> t -> string list
(** [audit model board archi t] re-derives every engine-independent
    invariant of [t] and returns human-readable descriptions of the
    violations, [[]] when the plan is internally consistent: per-block
    plan kinds and array lengths, tile-row ranges, the FM tile-byte and
    tiles-per-image formulas, weight-tile and staging bounds,
    inter-segment byte formulas, and that [total_bytes] and [feasible]
    match a recount. *)
