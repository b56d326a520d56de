(** Flat, precomputed per-layer scalar table.

    One O(n) pass over a model hoists every per-layer quantity the cost
    models read (MACs, weight/FM footprints, shapes, Eq.-1 loop extents,
    streaming bands) into unboxed int arrays, plus prefix sums and a
    sparse range-max table so segment aggregates become O(1) array
    arithmetic instead of O(len) list folds over [Layer.t].

    The table is the cost models' only per-layer source.  Every stored
    value is computed by exactly the integer formulas in {!Layer} and
    {!Model}, which stay the reference: the test suite checks each read
    against its formula. *)

type t

val of_model : Model.t -> t
(** [of_model m] precomputes the table — one [Layer] accessor pass. *)

val model : t -> Model.t
val num_layers : t -> int

val check : t -> Model.t -> unit
(** [check t m] accepts a table built from exactly [m] (physical
    equality — sessions and builds share the model value).
    @raise Invalid_argument otherwise. *)

(** {1 Per-layer scalars}

    Unchecked array reads — callers validate ranges once (the models
    already do). *)

val macs : t -> int -> int
val weight_elements : t -> int -> int
val ifm_elements : t -> int -> int
val ofm_elements : t -> int -> int
val extra_resident_elements : t -> int -> int
val fms_elements : t -> int -> int
val in_height : t -> int -> int
val in_width : t -> int -> int
val in_channels : t -> int -> int
val out_height : t -> int -> int
val out_width : t -> int -> int
val out_channels : t -> int -> int
val kernel : t -> int -> int
val stride : t -> int -> int
val padding : t -> int -> int
val is_depthwise : t -> int -> bool

val band1_elements : t -> int -> int
(** IFM elements of the one-OFM-row streaming band:
    [min kernel (in_h + 2 padding) * in_w * in_c] — the [rows = 1] case
    of [Builder.Tiling.ifm_rows_for_ofm_rows] times the band area. *)

val filters_extent : t -> int -> int
val channels_extent : t -> int -> int
val height_extent : t -> int -> int
val width_extent : t -> int -> int
val kernel_h_extent : t -> int -> int
val kernel_w_extent : t -> int -> int
(** The six Eq.-1 loop extents, one read each (the |d| of
    [Parallelism.layer_dim_extent]). *)

(** {1 Segment aggregates} — O(1) each. *)

val total_macs : t -> int
val total_weights : t -> int

val macs_range : t -> first:int -> last:int -> int
(** Equals [Model.macs_in_range] (prefix-sum difference).
    @raise Invalid_argument on an invalid range. *)

val weights_range : t -> first:int -> last:int -> int
(** Equals [Model.weights_in_range].
    @raise Invalid_argument on an invalid range. *)

val max_fms_range : t -> first:int -> last:int -> int
(** Equals [Model.max_fms_elements] (sparse-table range max).
    @raise Invalid_argument on an invalid range. *)

val max_macs_range : t -> first:int -> last:int -> int
(** Largest single-layer MAC count in [first, last] (sparse-table range
    max) — e.g. the widest layer a segment of the range must contain,
    which anchors the suffix floors of [Dse.Bounds].
    @raise Invalid_argument on an invalid range. *)
