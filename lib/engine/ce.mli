(** A compute engine: a grid of PEs with a parallelism strategy and a
    dataflow.

    The central quantity is {!layer_cycles}, the paper's Equation 1:

    {v Lat(L, CE) = prod over d in DD of ceil(|d| / Par(CE, d)) v}

    with the constraint that the product of parallelism factors does not
    exceed the engine's PE count.  Ceil divisions are where PE
    underutilization comes from: an engine whose factors do not divide a
    layer's loop extents wastes PEs on the ragged edges. *)

type t = private {
  id : int;                      (** 1-based, unique within an accelerator *)
  pes : int;                     (** PE (DSP) budget of this engine *)
  parallelism : Parallelism.t;
  dataflow : Dataflow.t;
}

val v : id:int -> pes:int -> parallelism:Parallelism.t -> dataflow:Dataflow.t -> t
(** Builds an engine.
    @raise Invalid_argument if [pes <= 0] or if the parallelism degree
    exceeds [pes] (violates the PE constraint of Eq. 1). *)

val layer_cycles : t -> Cnn.Layer.t -> int
(** [layer_cycles ce l] is Eq. 1's latency, in cycles, of processing the
    whole layer [l] on [ce]. *)

val tile_cycles : t -> Cnn.Layer.t -> rows:int -> int
(** [tile_cycles ce l ~rows] is the latency of one feature-map tile of
    [rows] OFM rows (full width, all channels) — the [FMsTile] granularity
    of paper Eq. 2.  [rows] is clamped to the layer's OFM height. *)

val ideal_cycles : pes:int -> Cnn.Layer.t -> int
(** [ideal_cycles ~pes l] is the lower bound [ceil(MACs / pes)]: latency at
    perfect PE utilization. *)

val utilization : t -> Cnn.Layer.t -> float
(** [utilization ce l] in (0, 1]: {!ideal_cycles} over {!layer_cycles} with
    [ce]'s full PE budget.  1.0 means no PE ever idles. *)

val average_utilization : t -> Cnn.Layer.t list -> float
(** MAC-weighted average of {!utilization} over a set of layers — the
    quantity a single-CE block optimises for (paper Section IV-A1).
    @raise Invalid_argument on an empty list. *)

val pp : Format.formatter -> t -> unit
(** e.g. ["CE3[256 PEs, F16xH4xW4, OS]"]. *)

type signature
(** An engine without its display id: the PE count, the six
    parallelism factors and the dataflow — everything the cost models
    read.  Memo tables key blocks on it; two signatures are equal under
    [Stdlib.(=)] exactly when those eight values are. *)

val signature : t -> signature
(** Allocates one small record and shares [t]'s parallelism. *)

val fingerprint : Util.Fingerprint.t -> signature -> Util.Fingerprint.t
(** Folds the PE count, the factors (filters, channels, height, width,
    kernel height, kernel width) and the dataflow into a key
    fingerprint, allocating nothing. *)

(** {1 Table-indexed versions}

    The same quantities computed from a {!Cnn.Table} by absolute layer
    index — no [Layer.out_shape] recomputation, no per-call extent-list
    allocation.  The builder and the cost models read these; the
    [Layer.t] versions above are their reference, and results are
    bit-identical to them. *)

val layer_cycles_at : t -> Cnn.Table.t -> int -> int
(** [layer_cycles_at ce tbl i] equals
    [layer_cycles ce (Model.layer m i)]. *)

val tile_cycles_at : t -> Cnn.Table.t -> int -> rows:int -> int
(** [tile_cycles_at ce tbl i ~rows] equals
    [tile_cycles ce (Model.layer m i) ~rows]. *)

val ideal_cycles_at : pes:int -> Cnn.Table.t -> int -> int
(** [ideal_cycles_at ~pes tbl i] equals
    [ideal_cycles ~pes (Model.layer m i)]. *)

