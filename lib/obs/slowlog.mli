(** Slow-query capture: a threshold-triggered bounded ring of statement
    records, dumped as JSON.

    The server feeds every statement's latency through {!observe};
    entries at or above the threshold are kept (newest evict oldest,
    but {!hits} and {!worst} cover everything ever observed).  Each
    entry carries the statement text — ready to feed back to
    [EXPLAIN ANALYZE] — plus an optional profile report and the labels
    of tracing spans recorded while the statement ran. *)

type entry = {
  statement : string;
  kind : string;  (** Statement kind, e.g. ["select"]. *)
  elapsed_ms : float;
  detail : string option;  (** Profile report text, when captured. *)
  span_labels : string list;
      (** Labels of the statement's spans, from its pinned trace. *)
  join : string option;
      (** Chosen join strategy, e.g. ["sweep-join"]; a fallback retry is
          marked, e.g. ["sweep-join -> nested-loop-join (fallback)"]. *)
  trace : string option;
      (** Request id, for cross-referencing a flight-recorder dump. *)
}

type t

val create : ?capacity:int -> threshold_ms:float -> unit -> t
(** Ring capacity defaults to 32 entries.  A threshold of 0 captures
    every statement.
    @raise Invalid_argument on a negative threshold or capacity < 1. *)

val threshold_ms : t -> float

val observe :
  t ->
  kind:string ->
  statement:string ->
  elapsed_ms:float ->
  ?detail:string ->
  ?span_labels:string list ->
  ?join:string ->
  ?trace:string ->
  unit ->
  bool
(** Record the statement if it crossed the threshold; returns whether
    it did. *)

val hits : t -> int
(** Threshold crossings ever observed (can exceed the ring capacity). *)

val entries : t -> entry list
(** Ring contents, newest first. *)

val worst : t -> entry option
(** Slowest statement ever observed, even if evicted from the ring. *)

val to_json : t -> string
(** [{"threshold_ms": ..., "hits": ..., "entries": [...]}] — one object
    per entry with statement/kind/elapsed_ms/profile/join/trace/spans. *)
