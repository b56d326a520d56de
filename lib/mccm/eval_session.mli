(** Memoized evaluation sessions for design-space exploration.

    A session binds one (model, board, build options) triple and
    memoizes the expensive pure stages of {!Evaluate.evaluate} across
    candidate architectures:

    - whole architectures, keyed by block structure (style, blocks,
      coarse pipelining — the display name is excluded, so renamed
      twins share one evaluation);
    - per-segment model results ({!Seg_cache}), shared between distinct
      architectures that agree on a block's layer range, engines, plan
      slice and boundary flags — a local-search move that shifts one
      boundary recomputes only the blocks it touches;
    - the builder's planning floors ({!Builder.Buffer_alloc}), sharing
      the pipelined tile search the same way at build time.

    Every cache key carries its full structural payload next to a
    precomputed content fingerprint, so hits are bit-identical to fresh
    evaluation — the session is semantically invisible and shows up only
    in wall-clock.  Created with [~memoize:false], a session bypasses
    every table (each request recomputes from scratch) while still
    counting evaluations, which is what the benchmark's uncached arm and
    the bit-exactness property tests run against.

    Sessions are not thread-safe.  For a Domains-parallel sweep, give
    each domain {!fork} of a shared session and {!absorb} the forks
    after joining; since caching never changes results, the sweep's
    output is independent of the fork/absorb schedule. *)

type t

val create :
  ?options:Builder.Build.options ->
  ?memoize:bool ->
  Cnn.Model.t ->
  Platform.Board.t ->
  t
(** [create model board] opens a session.  [options] defaults to
    {!Builder.Build.default_options}; [memoize] defaults to [true].  The
    session builds one {!Cnn.Table} of [model] and threads it through
    every build and evaluation. *)

val model : t -> Cnn.Model.t
val board : t -> Platform.Board.t

val memoized : t -> bool
(** Whether this session caches ([false] for the uncached baseline). *)

val table : t -> Cnn.Table.t option
(** The session's precomputed per-layer table; always [Some]. *)

val check : fn:string -> t -> Cnn.Model.t -> Platform.Board.t -> unit
(** [check ~fn t model board] accepts a session bound to a model and a
    board structurally equal to [model] and [board] — a caller that
    resolves a new but equal model value per request may reuse its
    session.
    @raise Invalid_argument naming [fn] otherwise. *)

val evaluate : ?store_arch:bool -> t -> Arch.Block.arch -> Evaluate.t
(** [evaluate t archi] is [Evaluate.evaluate (model t) (board t) archi]
    (under the session's build options), served from the caches when
    possible.  [store_arch] (default [true]) controls whether a miss is
    added to the whole-architecture table; pass [false] from callers
    that never revisit a candidate (exhaustive enumeration) to keep the
    session's footprint flat — the segment and builder caches still
    memoize, and results are bit-identical either way. *)

val metrics : ?store_arch:bool -> t -> Arch.Block.arch -> Metrics.t
(** [(evaluate t archi).metrics]. *)

val fork : t -> t
(** Snapshot for another domain: same (model, board, options), copied
    tables, zeroed counters (so a later {!absorb} adds only the fork's
    own activity). *)

val absorb : into:t -> t -> unit
(** Merge a fork's cache entries and counters back.  First-writer wins
    on key clashes; entries are content-keyed, so clashing values are
    equal and the merge order never affects results. *)

type stats = {
  evaluations : int;  (** requests served, cached or not *)
  arch_hits : int;    (** served from the whole-architecture table *)
  seg_hits : int;
  seg_misses : int;   (** segment-model lookups on arch misses *)
  seg_single : int * int;
      (** (hits, misses) for single-CE segments alone *)
  seg_pipelined : int * int;
      (** (hits, misses) for pipelined blocks alone *)
  plan_hits : int;
  plan_misses : int;  (** planning-floor lookups on arch misses *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
