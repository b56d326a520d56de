(** The persistent mccm evaluation daemon.

    One process serves any number of clients over a Unix-domain socket
    ({!Protocol} framing), paying process startup, {!Cnn.Table}
    construction and plan-cache warm-up once instead of per query:

    - {b I/O plane} — an accept systhread plus one reader systhread per
      connection.  Readers parse and validate frames, answer control
      ops ([ping]/[stats]/[health]/[recent]/[shutdown]) inline from
      lock-free snapshots — out-of-band, never queued behind evaluate
      traffic, so telemetry polls keep answering while every worker is
      saturated or the daemon is draining — and push evaluation work
      onto a bounded {!Bqueue}.  A full queue is answered with an
      immediate [overloaded] reply — the daemon never buffers without
      bound.  A request whose relative deadline is already expired at
      the gate is refused with [deadline_exceeded] without ever
      touching the queue or the worker pool.
    - {b Compute plane} — [workers] domains dispatched through one
      {!Util.Parallel.Pool.run} round (the caller's pool slot idles, so
      the I/O systhreads on the main domain stay responsive).  Every
      worker runs one path for every request: pop it, pick up its
      coalesced waiters, refuse the recipients whose deadline has
      passed, and run it once under its own error handler for the
      rest.  Each worker owns its {!Mccm.Eval_session}s, one per
      (model, board) content key, created on first use and kept warm
      for the daemon's lifetime, at most [max_sessions] per worker.
    - {b Drain} — {!stop} (also reachable via the [shutdown] op or a
      signal handler; it only flips an atomic, so it is safe from a
      signal context) stops the accept loop, closes the queue, lets the
      workers finish everything already queued, then unblocks idle
      readers, joins every thread and unlinks the socket.
    - {b Health} — one counter system: the lock-free lifecycle
      counters ({!counters}, the [stats] op's [counters] member) and
      the queue's depth and high-water mark ([queue_peak]) are always
      on, and nothing else counts requests.  With {!Mccm_obs} stats
      enabled the daemon adds only per-endpoint [serve.<op>.latency]
      histograms to the registry, next to the evaluator's own cache
      hit-rate counters.  Every [stats] reply embeds the full
      {!Mccm_obs.Metric} snapshot as exact JSON ([metrics] member), and
      work telemetry is recorded {e before} the reply frame is written,
      so a quiescent daemon's in-process snapshot matches what a poll
      reports bit-for-bit.
    - {b Flight recorder} — unless [flight_capacity = 0], {!create}
      arms {!Mccm_obs.Flight}: every work reply and rejection leaves a
      structured record (request id, op, worker, queue-wait ns, eval
      ns, bytes in/out, outcome), served by the [recent] op.  Request
      ids ([rid]) are client-supplied or daemon-minted and propagate
      into span args and reply frames.
    - {b Telemetry writer} — with [telemetry_path]/[prom_path] set, a
      systhread writes one JSONL stats snapshot per
      [telemetry_interval_s] tick and/or replaces a Prometheus
      text-format file atomically (tmp + rename), with a final tick
      after the drain. *)

type config = {
  socket_path : string;
  workers : int;           (** worker domains, [>= 1] *)
  queue_capacity : int;    (** pending-request bound; default 256 *)
  max_frame_bytes : int;   (** per-frame cap; default 1 MiB *)
  max_sessions : int;
      (** sessions each worker holds, one per (model, board); beyond it
          a new pair evaluates uncached, each such job counted by
          [registry_full].  A session caches segments and planning
          floors only, so sustained non-repeating load keeps RSS flat. *)
  cache_capacity : int;
      (** result-cache entries ({!Util.Cache} striped LRU over the raw
          evaluate payload); a hit replies from the reader thread,
          byte-identical to the evaluation that populated it, without
          touching the queue.  While a cacheable evaluate is queued,
          identical requests coalesce onto it (single-flight): one
          evaluation, N replies, deadlines honored per waiter.  [0]
          disables both.  Clients opt out per request with
          [{"cache": false}]. *)
  max_samples : int;       (** server-side cap on explore/validate samples *)
  max_specs_cap : int;     (** server-side cap on enumerate max_specs *)
  max_sleep_s : float;     (** cap on the [sleep] testing op *)
  flight_capacity : int;
      (** per-domain flight-recorder ring size; [0] leaves the recorder
          untouched (off unless something else armed it) *)
  flight_slow_ms : float;  (** slow-request retention threshold *)
  telemetry_path : string option;  (** JSONL stats snapshots, appended *)
  prom_path : string option;       (** Prometheus text file, tmp+rename *)
  telemetry_interval_s : float;    (** writer tick; default 2 s *)
}

val default : socket_path:string -> config
(** Defaults: recommended-domain-count workers, queue 256, 1 MiB
    frames, 64 sessions per worker, result cache 4096 entries, flight
    ring 512 x 50 ms, no telemetry files. *)

type t

val create : config -> t
(** Bind and listen on [config.socket_path].  A stale socket file with
    no live daemon behind it is reclaimed.
    @raise Failure when a live daemon already serves on the path, or
    the path exceeds the [sun_path] limit.
    @raise Invalid_argument on a non-positive [workers] or
    [queue_capacity], or a negative [cache_capacity]. *)

val run : t -> unit
(** Serve until {!stop}; returns after the graceful drain completes.
    Blocks the calling thread (the CLI's main); tests use {!spawn}.
    @raise Invalid_argument when called twice. *)

val stop : t -> unit
(** Request a graceful drain.  Only flips an atomic — safe to call from
    a signal handler or any thread; {!run} returns once the drain is
    done. *)

val stopping : t -> bool

val counters : t -> (string * int) list
(** Snapshot of the internal request-lifecycle counters (always on,
    independent of {!Mccm_obs}): connections opened/closed, frames,
    requests, enqueued/dispatched/completed, replies, cache
    hits/misses/coalesced/evictions, evaluations past the session cap,
    rejections by reason, errors, write failures.  Every counter is
    monotone non-decreasing over the daemon's life. *)

val queue_depth : t -> int

val session_count : t -> int
(** Sessions held across all workers, at most
    [workers * max_sessions]. *)

val config : t -> config

(** {1 Test scaffolding} *)

type handle

val spawn : config -> handle
(** {!create} + {!run} on a fresh thread + block until a ping
    round-trips.  @raise Failure when the daemon does not become ready
    (the thread is stopped and joined first). *)

val shutdown : handle -> unit
(** {!stop} + join the {!spawn} thread. *)

val daemon : handle -> t

val wait_ready : ?timeout_s:float -> string -> unit
(** Poll [socket_path] until a ping round-trips (for daemons started as
    a separate process).  @raise Failure on timeout. *)
