(** Self-scraping: the metrics registry as temporal relations.

    Each {!scrape} tick walks the registry and appends one tuple per
    series, valid over the closed interval from this tick to just
    before the next — the server's own telemetry becomes ordinary
    interval-stamped relations ([_metrics], [_requests]) that TSQL
    queries, joins and temporal aggregates work over unchanged.

    Counters are delta-encoded into per-second rates; gauges are stored
    as-is; the configured latency histogram families turn into
    per-statement-kind [_requests] rows (rate plus p50/p99 estimated
    from bucket-count deltas) and the error counter families into
    [outcome = 'error'] rows.

    History is bounded by {e retention} (tuples past the horizon are
    dropped) and {e downsampling}: tuples older than the raw window are
    re-aggregated to fixed compact windows by the engine itself
    ([GROUP BY series, SPAN w] with AVG).  Rows straddling the
    span-aligned boundary are split at it first, which preserves every
    SPAN-w arithmetic-mean aggregate exactly — compaction correctness
    is a temporal-aggregate equivalence. *)

type config = {
  tick_us : int;  (** Scrape period, microseconds. *)
  retention_us : int;  (** Drop tuples ending before [now - retention]. *)
  raw_us : int;  (** Keep full-resolution tuples this far back. *)
  compact_window_us : int;  (** Downsampled window width. *)
  latency_families : string list;
      (** Histogram families (with a [kind] label) feeding [_requests]. *)
  error_families : string list;
      (** Counter families feeding [_requests] error rows. *)
}

val default_config : config
(** 1s ticks, 1h retention, 5m raw, 1m windows, the network server's
    per-kind latency/error families. *)

val metrics_name : string
(** ["_metrics"]: (name, labels, value). *)

val requests_name : string
(** ["_requests"]: (kind, outcome, rate, p50_us, p99_us). *)

val metrics_schema : Relation.Schema.t
val requests_schema : Relation.Schema.t

type t

val create : ?config:config -> Obs.Metrics.t -> t
(** @raise Invalid_argument if [tick_us] or [compact_window_us] is
    not positive. *)

val config : t -> config

val scrape : ?now_us:int -> t -> unit
(** One full tick at [now_us] (default {!Obs.Trace.now_us}): sample the
    registry, append interval tuples (the first tick only records the
    delta baseline), enforce retention and downsampling, refresh the
    scraper's own gauges in the registry. *)

val tick : ?now_us:int -> t -> unit
(** Just the sampling step of {!scrape} (for tests that want history
    without compaction). *)

val due : t -> now_us:int -> bool
val next_due_us : t -> int

val version : t -> int
(** Bumped whenever the relations change — sessions cache materialized
    relations against it. *)

val ticks : t -> int
val compactions : t -> int

val row_counts : t -> int * int
(** Current ([_metrics], [_requests]) tuple counts. *)

val metrics_relation : t -> Relation.Trel.t
val requests_relation : t -> Relation.Trel.t
(** Time-sorted materializations, cached per {!version}. *)

val register : t -> Tsql.Catalog.t -> Tsql.Catalog.t
(** Bind [_metrics] and [_requests] into a catalog. *)

val catalog : t -> Tsql.Catalog.t
(** A fresh catalog holding just the self-relations. *)

val downsample :
  window_us:int ->
  groups:string list ->
  values:string list ->
  Relation.Trel.t ->
  (Relation.Trel.t, string) result
(** The compaction re-aggregation, exposed for the equivalence test:
    AVG of each value column per (group columns, SPAN [window_us])
    window, rebuilt under the input's schema. *)
