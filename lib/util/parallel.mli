(** Deterministic fork/join scaffolding for Domains-parallel sweeps.

    Every parallel consumer in the repo (DSE exploration, enumeration,
    validation sweeps) shares the same shape: split [0, n) into
    contiguous chunks, evaluate the chunks on a fixed crew of domains,
    merge in chunk order.  The chunk boundaries depend only on the item
    and worker counts — never on timing — so any per-chunk results can
    be merged in a fixed order and the overall output is
    schedule-independent.

    {!Pool} keeps a persistent crew of worker domains that serve any
    number of rounds, so a search that makes many parallel passes
    (local-search steps, repeated sweeps) spawns its domains once, and
    per-worker state (a worker's evaluation session) lives as long as
    the whole search; {!map_pooled} is the one-shot convenience
    wrapper. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val effective : ?clamp:bool -> domains:int -> n:int -> unit -> int
(** [effective ~domains ~n ()] is the number of chunks actually used
    for [n] work items: [domains] clamped to at least 1, to
    {!recommended} (unless [~clamp:false] — useful to exercise true
    multi-domain schedules on small machines), and to [n] (but at least
    1 even when [n = 0]). *)

val bounds : chunks:int -> n:int -> (int * int) array
(** [bounds ~chunks ~n] splits [0, n) into contiguous half-open
    intervals [(lo, hi)] whose sizes differ by at most one, earlier
    chunks taking the remainder.  Concatenating them in order yields
    exactly [0, n).  The chunk count is capped at [max 1 n], so no
    returned interval is empty while [n > 0] (asking for more chunks
    than items just returns [n] singletons). *)

(** Persistent worker-domain pool. *)
module Pool : sig
  type t
  (** A fixed crew of domains: the creating domain participates as
      worker 0, and [size - 1] spawned domains are workers
      [1 .. size - 1].  Worker ids are stable for the pool's life, so
      per-worker caller state (a worker's evaluation session, a scratch
      buffer) stays on the domain that created it across any number of
      {!run}/{!map} rounds. *)

  val create : ?clamp:bool -> domains:int -> unit -> t
  (** [create ~domains ()] spawns the crew once.  [domains] is clamped
      to at least 1 and (unless [~clamp:false]) to {!recommended}.
      Callers are responsible for {!shutdown} — or use {!with_pool}. *)

  val size : t -> int
  (** Total workers, the caller included; [size >= 1]. *)

  val run : t -> (int -> unit) -> unit
  (** [run t job] executes [job worker] once per worker — the caller
      runs [job 0] in its own domain — and returns when every worker
      has finished.  [job] must be safe to run concurrently with itself
      under distinct worker ids.  If any invocation raises, the round
      still completes and one of the exceptions is re-raised (the
      caller's own first); the pool stays usable.
      @raise Invalid_argument after {!shutdown}. *)

  val chunk_count : t -> chunk_hint:int -> n:int -> int
  (** The number of chunks {!map} will use for [n] items: up to 8 per
      worker for load balance, but each at least [chunk_hint] items so
      per-chunk dispatch stays amortised; always in [[1, n]] for
      [n >= 1].  A pure function of [(size t, chunk_hint, n)]. *)

  val map :
    t ->
    ?chunk_hint:int ->
    n:int ->
    (worker:int -> chunk:int -> lo:int -> hi:int -> 'a) ->
    'a list
  (** [map t ~n f] splits [0, n) into {!chunk_count} contiguous chunks
      ({!bounds}; [chunk_hint] defaults to 256), evaluates them on the
      crew — idle workers pull the next unclaimed chunk, so chunk ids
      and bounds are deterministic while the chunk-to-worker assignment
      is not — and returns the results in chunk order.  For a
      schedule-independent overall result, [f]'s output must depend
      only on [(chunk, lo, hi)], never on [worker] (per-worker caches
      that are semantically invisible are fine).  A single-worker pool
      runs one chunk inline.  [n = 0] returns []. *)

  val shutdown : t -> unit
  (** Stop and join the spawned domains.  Idempotent.  Any later
      {!run}/{!map} with [size > 1] raises. *)

  val with_pool : ?clamp:bool -> domains:int -> (t -> 'a) -> 'a
  (** [with_pool ~domains f] is [f (create ~domains ())] with a
      guaranteed {!shutdown}, even on exceptions. *)
end

val map_pooled :
  ?pool:Pool.t ->
  ?clamp:bool ->
  ?chunk_hint:int ->
  domains:int ->
  n:int ->
  (worker:int -> chunk:int -> lo:int -> hi:int -> 'a) ->
  'a list
(** [map_pooled ~domains ~n f] is {!Pool.map} on [pool] when given
    (then [domains]/[clamp] are ignored — the pool's size rules), and
    otherwise a convenience wrapper that runs inline when
    [effective ~domains ~n] is 1 or inside a temporary
    {!Pool.with_pool} crew of that size when it is not. *)
