(** Process-wide registry of named counters, gauges and histograms.

    Hot-path operations are O(1) and gated on {!Control.stats_on}:
    counters are atomic increments (exact under parallel increments from
    any number of domains), gauges are atomic stores / compare-and-set
    maxima, and histogram observations append to a per-domain cell — no
    lock and no cross-domain traffic on the record path.

    Registration ({!counter} / {!gauge} / {!histogram}) is get-or-create
    by name under a mutex; call sites hold the returned handle (usually
    at module initialisation) so the hot path never touches the
    registry.  A {!snapshot} folds every domain's cells into an
    immutable value; take snapshots at quiescent points (after domains
    join) — concurrent observation during a snapshot can miss the very
    latest samples.  Snapshots {!merge} commutatively: counters add,
    gauges take the maximum, histograms pool their samples — so merging
    per-process or per-run snapshots is order-insensitive. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get or create the counter [name]. *)

val gauge : string -> gauge
(** Get or create the gauge [name].  A gauge starts unset (rendered and
    snapshotted only once written). *)

val histogram : ?cap:int -> string -> histogram
(** Get or create the histogram [name].  Each histogram keeps count,
    sum, min and max exactly, plus up to [cap] (default 8192, first
    [cap] observations; fixed at creation) raw samples per domain for
    quantile estimation. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
(** Current value (readable whether or not stats are on). *)

val set : gauge -> float -> unit
val update_max : gauge -> float -> unit
(** Raise the gauge to [v] if [v] exceeds its current value (or it is
    unset) — best-so-far trajectories. *)

val observe : histogram -> float -> unit
(** Record one sample (by convention, durations in seconds). *)

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;          (** [infinity] when empty *)
  max : float;          (** [neg_infinity] when empty *)
  samples : float array;
      (** sorted ascending; capped at record time, complete below the
          cap *)
}

type snapshot = {
  counters : (string * int) list;            (** sorted by name *)
  gauges : (string * float) list;            (** set gauges only *)
  histograms : (string * hist_snapshot) list;
}

val snapshot : unit -> snapshot
(** Fold the whole registry (all domains' cells) into one value. *)

val merge : snapshot -> snapshot -> snapshot
(** Commutative union: counters add, gauges max, histograms pool
    (count/sum add, min/max widen, samples merge sorted). *)

val reset : unit -> unit
(** Zero every counter, unset every gauge, drop every histogram sample.
    Registered names (and handles held by call sites) stay valid. *)

val quantile : hist_snapshot -> q:float -> float
(** Linear-interpolation quantile ([q] in [0, 1]) over the snapshot's
    retained samples via {!Util.Stats.quantile}.
    @raise Invalid_argument on an empty histogram or [q] out of
    range. *)

val to_json : snapshot -> Util.Json.t
(** Exact serialization: [{"counters": {name: int}, "gauges": {name:
    num}, "histograms": {name: {count, sum, min, max, samples: [..]}}}].
    Full sample arrays cross the wire (not precomputed quantiles), so
    {!quantile} on a decoded snapshot is bit-identical to the original;
    floats survive {!Util.Json.to_string} at full [%.17g] precision.
    The empty-histogram sentinels ([min = infinity],
    [max = neg_infinity]) encode as [null].  Non-finite samples are not
    representable (they would render as [null]); observations are
    durations and sizes, which are finite. *)

val of_json : Util.Json.t -> (snapshot, string) result
(** Inverse of {!to_json}: [of_json (to_json s) = Ok s], including
    through a {!Util.Json.to_string} / [parse] string round trip.
    Key order is preserved, so snapshots (always sorted) decode
    sorted. *)

val delta : snapshot -> snapshot -> snapshot
(** [delta later earlier] — what happened between two snapshots of the
    same registry: counters subtract, histograms subtract (count and
    sum subtract, samples are the sorted multiset difference, min/max
    are [later]'s), gauges keep [later]'s value.  Keys come from
    [later] only.  For a monotone pair (i.e. [later = merge earlier g]
    for some [g]), [merge earlier (delta later earlier) = later] — the
    property the test suite pins — so pollers can turn two absolute
    snapshots into an interval snapshot and compute rates and
    interval quantiles from it. *)

val pp : Format.formatter -> snapshot -> unit
(** Render as {!Util.Table} blocks: counters/gauges, then histograms
    with count, total and p50/p95/p99 from {!quantile}.  Output is
    fully deterministic: every block is sorted by name regardless of
    the order the caller assembled the snapshot in (pinned by a golden
    test). *)
