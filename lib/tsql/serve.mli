(** The serve loop: execute a stream of interleaved statements against a
    {!Session} and report per-operation latency percentiles.

    Latency is wall-clock time around {!Session.exec_statement}, recorded
    into a per-kind {!Obs.Histogram} (select / insert / delete / view
    DDL / explain-analyze); percentiles come from the histogram (5%
    relative error at the default gamma), while count, mean and max stay
    exact.  The same histograms and error counters live in an
    {!Obs.Metrics} registry returned with the report, so the loop can
    periodically dump a Prometheus exposition.  Errors are reported
    inline, counted, and do not stop the stream — a serve loop keeps
    serving. *)

type op_stats = {
  ops : int;
  errors : int;
  mean_us : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  max_us : float;
}

val kind_of : Ast.statement -> string
(** The statement's display kind (["select"], ["insert"], ...) — the
    label used by the per-kind latency histograms here and by the
    network server's request metrics. *)

type report = {
  total : int;
  total_errors : int;
  elapsed_s : float;
  per_kind : (string * op_stats) list;  (** Stable display order. *)
  session_stats : Live.Stats.t;  (** The session's live counters. *)
  metrics : Obs.Metrics.t;
      (** Latency histograms, error counters, the session's live gauges
          and the per-relation statistics gauges, ready for
          {!Obs.Metrics.expose}. *)
  slowlog : Obs.Slowlog.t option;
      (** The slow-query log the loop fed, when one was passed in. *)
}

val run :
  ?echo:bool ->
  ?out:(string -> unit) ->
  ?metrics_every:int ->
  ?slowlog:Obs.Slowlog.t ->
  Session.t ->
  Ast.statement list ->
  report
(** Execute the statements in order.  [echo] (default false) prints each
    SELECT result and acknowledgement through [out] (default
    [print_string]); errors always print.  [metrics_every] (off by
    default) dumps the Prometheus exposition through [out] every that
    many statements.  [slowlog] (off by default) captures every
    statement at or over its threshold.  With a slowlog every statement
    runs with an {!Obs.Profile} ({!Session.exec_statement}'s
    [?profile]), so a slow SELECT or EXPLAIN ANALYZE against a base
    relation carries the profile of its own run — never of a second
    evaluation; when tracing is armed the entry also carries the labels
    of spans recorded during the statement. *)

val run_script :
  ?echo:bool ->
  ?out:(string -> unit) ->
  ?metrics_every:int ->
  ?slowlog:Obs.Slowlog.t ->
  Session.t ->
  string ->
  (report, string) result
(** {!Parser.parse_script} then {!run}.  [Error _] only on a parse
    failure — execution errors are counted in the report. *)

val report_to_string : report -> string
