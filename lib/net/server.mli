(** A multi-client line-protocol server over the TSQL session layer,
    built robustness-first: admission control with bounded queueing,
    structured load shedding, degradation under pressure, idle reaping,
    and graceful drain.

    {b Architecture.}  One event-loop domain owns all socket I/O: it
    accepts connections, reads request lines, answers control verbs
    ([PING]/[QUIT]/[METRICS]/[SLO]/[TRACE DUMP], and the [SHOW METRICS]
    statement as [METRICS]) directly, and hands statements to the
    {!Admission} controller.  [METRICS] answers with the shared
    registry followed by the asking connection's own session gauges
    (live maintenance, statistics store, [tempagg_partition_*]).  A fixed pool of worker domains executes
    admitted statements against the submitting connection's own
    {!Tsql.Session} (created from the shared catalog with a private
    statistics store, so worker domains never share mutable state) and
    posts framed replies back to the event loop through a completion
    queue and a wakeup pipe.  A connection has at most one statement
    outstanding — the server stops reading its socket until the reply
    is flushed, which is the per-connection backpressure that keeps one
    fast client from starving the rest.

    {b Robustness.}  Total outstanding work is bounded by
    [domains + queue_depth]; past that, requests are shed with a
    [BUSY] reply in O(1) without touching a worker.  Requests queued
    past the degrade watermark execute under guard budgets with an
    [ON ERROR fallback] policy and a tighter deadline, so saturated
    queries degrade to slower-but-bounded plans instead of failing.
    Connections idle past the timeout are reaped.  [SIGPIPE] is
    ignored — a client disconnecting mid-reply surfaces as a clean
    per-connection write error, never process death.

    {b Drain.}  On [SIGTERM]/[SIGINT] (or {!shutdown}) the server stops
    accepting, sheds new requests with [BUSY draining], finishes queued
    and in-flight work, flushes replies, and returns its report — all
    within the drain deadline, after which still-queued requests are
    shed and connections force-closed.  Either way the caller gets a
    report suitable for a clean [exit 0].

    {b Request-scoped tracing.}  Every statement runs under a request
    id — client-chosen via the [TRACE <id>] prefix or minted as
    [r<conn>-<seq>] — with a root span opened at dispatch, a queue-wait
    span covering admission, and an execute span on the worker domain
    under which all engine/storage/join spans nest.  The always-on
    flight recorder ({!Obs.Recorder}) pins traces of slow, shed,
    degraded or errored requests; [TRACE DUMP] (or [SIGUSR1]) exports
    them as Chrome trace JSON. *)

type transport =
  | Tcp of int
      (** Listen on this TCP port on all interfaces; [0] picks an
          ephemeral port (see {!port}). *)
  | Stdio
      (** Serve exactly one connection over stdin/stdout behind the same
          dispatcher (admission control, workers, metrics and drain
          included).  EOF on stdin drains and exits.  This is also how
          a statement script runs: [serve --script F] opens [F] onto
          stdin. *)

type config = {
  transport : transport;
  domains : int;  (** Worker-pool size (the in-flight budget). *)
  queue_depth : int;  (** Bounded admission queue. *)
  degrade_watermark : int option;
      (** Queue length at which admitted requests degrade; default half
          the queue depth (see {!Admission.create}). *)
  drain_timeout_ms : int;
      (** Grace period for finishing work at shutdown. *)
  idle_timeout_ms : int;
      (** Reap connections with no traffic for this long. *)
  max_connections : int;
      (** Accepted connections beyond this are told [BUSY] and closed. *)
  memory_budget : int option;  (** Per-statement guard budget (bytes). *)
  deadline_ms : float option;  (** Per-statement guard deadline. *)
  degrade_deadline_ms : float option;
      (** Deadline for degraded statements; defaults to half of
          [deadline_ms], or 500 ms when no deadline is configured —
          degraded work is always time-bounded. *)
  on_error : Tempagg.Engine.on_error option;
      (** Recovery policy for guarded statements (degraded statements
          are forced to at least [Fallback]). *)
  cache_capacity : int;  (** Per-session query-cache entries. *)
  adaptive : bool;  (** Stats-driven planning (per-session store). *)
  data_dir : string option;
      (** Base directory for server-side [CREATE TABLE] partitions,
          created with any missing parents.  Each TCP connection gets a
          private [conn-<id>] subdirectory; the {!Stdio} connection gets
          the directory itself. *)
  partitions : (string * string) list;
      (** [(name, dir)] time-partitioned bases bound into every
          connection's session.  Each session loads its own handle from
          [dir], so worker domains never share partition state. *)
  split_threshold : int option;
  slowlog : Obs.Slowlog.t option;
      (** Capture statements at or over its threshold (fed from the
          event loop; entries carry kind, statement, latency, the
          request id, the labels of the pinned trace's spans and — for
          joins — the chosen strategy).  Each entry's profile is its
          pinned trace rendered as a span tree
          ({!Obs.Trace.tree_to_string}), whatever the statement's kind:
          the layer that took the time and, under [plan], the chosen
          algorithm and why.  The threshold doubles as the flight
          recorder's "slow" pin trigger. *)
  recorder_out : string option;
      (** Where [SIGUSR1] (with [signals]) and the final drain write
          the flight-recorder dump (Chrome trace JSON, atomic
          temp+rename).  [None] still honors SIGUSR1 — it falls back
          to [tempagg-recorder.json] — but skips the exit dump. *)
  scrape_every_ms : int option;
      (** Self-scrape period: every tick (on the event loop, scheduled
          off the monotonic clock) samples the server's own registry
          into the [_metrics] / [_requests] temporal self-relations,
          which every connection's session sees as ordinary queryable
          relations.  [None] (the default) turns self-scraping off. *)
  scrape_config : Selfmon.Scrape.config option;
      (** Retention / downsampling / family overrides for the scraper;
          [scrape_every_ms] wins over its [tick_us]. *)
  slo : Obs.Slo.objective list;
      (** Objectives re-evaluated on every scrape tick by running their
          compiled TSQL against the self-relations.  Verdicts feed the
          [tempagg_slo_*] metrics, the [SLO] verb / [SHOW SLO]
          statement, and the report's {!report.slo_summary}. *)
}

val default_config : config
(** TCP port 7411, 4 domains, queue depth 64, 5 s drain, 60 s idle
    timeout, 1024 connections, no guard budgets, adaptive planning. *)

type report = {
  accepted : int;  (** Connections accepted (including over-capacity). *)
  requests : int;  (** Statements admitted and executed. *)
  shed : int;  (** Requests refused with [BUSY]. *)
  errors : int;
      (** Lines answered with [ERR]: the sum over kinds of
          [tempagg_net_errors_total{kind}].  A line refused on the event
          loop (oversized, or a malformed [TRACE] prefix or dump id)
          counts under kind [protocol]. *)
  degraded : int;  (** Replies marked [degraded]. *)
  timed_out : int;  (** Connections reaped for idleness. *)
  elapsed_s : float;
  drained : bool;
      (** Work finished and flushed before the drain deadline ([false]
          when the deadline forced eviction). *)
  metrics : Obs.Metrics.t;
      (** Registry with the server gauges/counters, the per-kind latency
          histograms and error counters, and the join counters, ready
          for {!Obs.Metrics.expose}. *)
  scrapes : int;  (** Self-scrape ticks taken (0 with scraping off). *)
  slo_summary : string option;
      (** Final rendered burn-rate report — per-objective verdicts,
          alert lines, worst windows — from a last scrape-and-evaluate
          at drain.  [None] unless objectives were configured. *)
}

type t

val create : ?config:config -> Tsql.Catalog.t -> t
(** Bind the listening socket (for {!Tcp}) and set up the dispatcher.
    The catalog's relations seed every connection's session; sessions
    get private statistics stores, so relation writes and ANALYZE
    results are connection-local.
    @raise Unix.Unix_error when the port cannot be bound. *)

val port : t -> int option
(** The bound TCP port ([None] for {!Stdio}) — useful with [Tcp 0]. *)

val run : ?signals:bool -> t -> report
(** Spawn the worker domains and run the event loop until drained.
    [signals] (default false) installs [SIGTERM]/[SIGINT] handlers that
    trigger a graceful drain; [SIGPIPE] is always ignored.  Blocks;
    call {!shutdown} from another domain (or a signal) to stop. *)

val shutdown : t -> unit
(** Request a graceful drain.  Safe to call from any domain or from a
    signal handler; idempotent. *)

val report_to_string : report -> string
(** The totals line, one row per statement kind (ops, errors, mean,
    p50, p90, p99 and max latency in microseconds, from
    [tempagg_net_latency_us{kind}] and [tempagg_net_errors_total{kind}]),
    then the SLO summary when there is one. *)
