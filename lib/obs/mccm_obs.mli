(** Observability for the MCCM toolchain: structured tracing, metrics
    and profiling across the evaluator, builder, DSE and validation
    layers.

    The library is dormant by default: every hook threaded through the
    stack starts with one atomic load ({!Control.enabled}) and does
    nothing else while instrumentation is off — the bench gate holds the
    disabled overhead under 2% on the cached-DSE hot path.  Switched on
    (CLI [--stats] / [--trace FILE], or {!enable}), spans feed
    per-domain buffers exportable as Chrome [trace_event] JSON
    ({!Chrome_trace}, loadable in Perfetto) and duration histograms,
    while counters and gauges record cache hit rates, dedup ratios and
    best-so-far trajectories in the global {!Metric} registry.

    Span taxonomy (categories in parentheses): [eval.run],
    [eval.single_ce], [eval.pipelined] (mccm); [build.build],
    [build.parallelism_select], [build.plan], [build.planning_floor]
    (build); [dse.draw], [dse.eval], [dse.eval_slice],
    [dse.exhaustive], [dse.exhaustive_best], [dse.local_search] (dse);
    [validate.sweep] phases
    and one [validate.<invariant>] per invariant check (validate);
    [serve.<op>] per-request spans in the daemon's workers (serve, with
    a [rid] arg carrying the request id); [mccm.<subcommand>] CLI roots
    (cli).  Metric names mirror the subsystem: [session.*], [seg.*],
    [plan.*], [build.*], [dse.*], [validate.*], the evaluation
    daemon's per-endpoint [serve.<op>.latency] histograms (its
    request-lifecycle counts live in its own always-on ledger,
    [Serve.Daemon.counters], not here), and a ["span.<name>"]
    duration histogram per span.

    Beyond spans and metrics the library carries two telemetry planes
    for the serving stack: {!Flight}, a per-domain ring buffer of
    structured per-request records (request id, op, queue-wait and
    evaluation nanoseconds, bytes in/out, outcome, worker) gated like
    everything else on one atomic load and dumped via snapshot-merge;
    and exact snapshot serialization ({!Metric.to_json} /
    {!Metric.of_json} / {!Metric.delta}) plus a Prometheus text
    renderer ({!Prometheus}) so a live process can be polled, scraped
    and diffed without stopping it. *)

module Control = Control
module Clock = Clock
module Metric = Metric
module Span = Span
module Chrome_trace = Chrome_trace
module Flight = Flight
module Prometheus = Prometheus

val enabled : unit -> bool
(** Alias of {!Control.enabled} — the hook gate. *)

val enable : ?tracing:bool -> unit -> unit
(** Alias of {!Control.enable}. *)

val disable : unit -> unit
(** Alias of {!Control.disable}. *)

val span :
  ?cat:string -> ?args:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** Alias of {!Span.with_span}. *)

val reset : unit -> unit
(** {!Metric.reset} plus {!Span.clear}: a clean slate between runs. *)

val write_trace : path:string -> unit
(** Export every recorded span to [path] as Chrome trace JSON. *)

val pp_summary : Format.formatter -> unit -> unit
(** The "mccm stats" block: the current {!Metric.snapshot} rendered as
    tables (counters, gauges, span-duration quantiles). *)
