(** Tile arithmetic shared by the pipelined-CEs schedule (paper Eq. 2/3)
    and the buffer planner (Eq. 4/7).

    Pipelined blocks process feature maps in horizontal bands of OFM
    rows.  These helpers convert between OFM row counts, the IFM rows
    (halo included) needed to produce them, weight tile sizes under a
    filter-parallel engine, and the producer/consumer tile dependence
    used by the skewed tile pipeline.

    The [_at] variants compute the same integers from a {!Cnn.Table} by
    absolute layer index; the planner and the cost models read those,
    and the [Cnn.Layer.t] versions are their reference. *)

val weight_tile_elements : Engine.Ce.t -> Cnn.Layer.t -> int
(** [weight_tile_elements ce l] is the number of weight elements the
    engine holds resident at once when streaming [l]'s weights by filter
    group: the total weights divided by the number of filter groups,
    where the group count is [ceil (filters / Par(Filters))].  Always at
    least 1 and at most [Cnn.Layer.weight_elements l]. *)

val weight_tile_elements_at : Engine.Ce.t -> Cnn.Table.t -> int -> int
(** [weight_tile_elements_at ce tbl i] equals
    [weight_tile_elements ce (Model.layer m i)]. *)

val tile_rows : Cnn.Layer.t -> tiles:int -> int
(** [tile_rows l ~tiles] is the OFM rows per tile when [l]'s output
    height is cut into [tiles] bands: [ceil (out_h / tiles)].
    @raise Invalid_argument if [tiles < 1]. *)

val num_row_tiles : Cnn.Layer.t -> rows:int -> int
(** [num_row_tiles l ~rows] is the number of bands of [rows] OFM rows
    covering [l]'s output height: [ceil (out_h / rows)].
    @raise Invalid_argument if [rows < 1]. *)

val num_row_tiles_at : Cnn.Table.t -> int -> rows:int -> int
(** [num_row_tiles_at tbl i ~rows] equals
    [num_row_tiles (Model.layer m i) ~rows].
    @raise Invalid_argument if [rows < 1]. *)

val ifm_rows_for_ofm_rows : Cnn.Layer.t -> rows:int -> int
(** [ifm_rows_for_ofm_rows l ~rows] is the (padded) IFM rows needed to
    compute [rows] consecutive OFM rows: [kernel + (rows - 1) * stride],
    clamped to the padded input height.  Monotone in [rows] and never
    below the kernel extent.
    @raise Invalid_argument if [rows < 1]. *)

val producer_tile : producer_tiles:int -> consumer_tiles:int -> int -> int
(** [producer_tile ~producer_tiles ~consumer_tiles t] is the index of
    the last producer tile that must be complete before the consumer can
    start its tile [t], when producer and consumer cut the same image
    into [producer_tiles] and [consumer_tiles] bands respectively.  The
    result is in [0, producer_tiles - 1].
    @raise Invalid_argument on non-positive tile counts or negative [t]. *)

val min_fm_elements : Cnn.Layer.t -> int
(** [min_fm_elements l] is the smallest on-chip feature-map working set
    that still lets [l] execute with row-granular streaming: one OFM
    row's IFM band plus one OFM row.  Resident shortcut tensors are not
    counted — in this regime they spill off chip, which the single-CE
    model charges as extra accesses.  Strictly below
    [Cnn.Layer.fms_elements l] for multi-row outputs. *)

val min_fm_elements_at : Cnn.Table.t -> int -> int
(** [min_fm_elements_at tbl i] equals
    [min_fm_elements (Model.layer m i)]. *)
