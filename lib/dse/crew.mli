(** Per-worker evaluation-session crews for Domains-parallel DSE.

    A crew binds the caller's session to a persistent
    {!Util.Parallel.Pool}: domains spawn once (or are borrowed from a
    caller-supplied pool), and each pool worker evaluates on a session
    of its own for the crew's life.  Worker 0 uses the caller's session;
    every other worker gets an {!Mccm.Eval_session.sibling}, made on the
    first parallel round and dropped by {!finish}, so nothing the
    siblings cache outlives the crew.  A sequential crew runs everything
    on the caller's session.

    {b Determinism.}  {!map}'s chunk-to-worker assignment is racy, but
    a worker's session is a semantically invisible (bit-exact) cache:
    if the mapped function's output depends only on its [(lo, hi)]
    range, the in-order merge makes the overall result independent of
    the crew size, the chunking, and the schedule.

    Rounds, chunk counts and chunk execution times are recorded under
    the [dse.parallel.*] metric names when {!Mccm_obs} stats are on. *)

type t

val create :
  ?pool:Util.Parallel.Pool.t ->
  ?clamp:bool ->
  ?domains:int ->
  Mccm.Eval_session.t ->
  t
(** [create ~domains session] builds a crew around [session].  With
    [pool] the crew borrows it (its size rules; it is not shut down by
    {!finish}); otherwise [domains] (default 1, clamped to
    [Domain.recommended_domain_count] unless [~clamp:false]) sizes an
    owned pool, or no pool at all when the effective count is 1. *)

val size : t -> int
(** Workers the crew can use, caller included; [>= 1]. *)

val map :
  t ->
  ?chunk_hint:int ->
  n:int ->
  (session:Mccm.Eval_session.t -> lo:int -> hi:int -> 'a) ->
  'a list
(** [map t ~n f] evaluates [f] over contiguous chunks of [0, n) —
    {!Util.Parallel.Pool.map} chunking, [chunk_hint] default 256 —
    each call on its worker's session, and returns the chunk results in
    order.  Sequential crews run one inline call on the caller's
    session.  [f]'s output must depend only on [(lo, hi)]. *)

val stats : t -> Mccm.Eval_session.stats
(** The field-wise sum of the counters of every session the crew has
    used so far: the caller's session (all its counters, including what
    it counted before the crew) plus each sibling's.  Read it before
    {!finish}, which drops the siblings. *)

val finish : t -> unit
(** Drop the siblings and, if the crew owns its pool, shut it down.
    The crew may be reused afterwards (fresh siblings are made on the
    next parallel {!map}). *)

val with_crew :
  ?pool:Util.Parallel.Pool.t ->
  ?clamp:bool ->
  ?domains:int ->
  Mccm.Eval_session.t ->
  (t -> 'a) ->
  'a
(** [create] + guaranteed {!finish}. *)
