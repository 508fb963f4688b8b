(** Per-relation observed statistics: the storage half of the
    observe → store → decide loop.

    Each relation gets a bounded ring of per-query {!outcome} records
    (newest evict oldest) plus exponentially-decayed aggregates of
    latency and result size, and optionally the result of
    an eager [ANALYZE] scan ({!analysis}).  {!summary} condenses both
    into what the optimizer's observed path
    ([Optimizer.choose_observed]) consumes.

    A {!store} keys entries by case-folded relation name; it is shared
    mutable state deliberately — catalogs are rebuilt per statement,
    statistics must survive that. *)

type outcome = {
  cardinality : int;  (** Input cardinality seen by the query. *)
  algorithm : string;
  elapsed_ms : float;
  k_observed : int option;
      (** A k-ordering bound the run itself proved (e.g. a k-ordered
          tree completing without order violations over a plain scan of
          the relation).  Ignored when [degradations > 0]. *)
  segments : int option;
      (** Constant intervals in the result, when the query shape makes
          that a property of the relation (ungrouped, unwindowed). *)
  degradations : int;
}

type analysis = {
  an_cardinality : int;
  an_k : int;  (** Streaming upper bound on the exact k-orderedness. *)
  an_slack : int;  (** Over-estimation bound ([Ordering.Korder.slack]). *)
  an_percentage : float option;
      (** Exact k-ordered-percentage at [an_k], when computed. *)
  an_time_ordered : bool;
  an_distinct_endpoints : int;  (** {!Distinct} sketch estimate. *)
}

type t

val create : ?capacity:int -> ?alpha:float -> unit -> t
(** Ring capacity (default 64 outcomes) and decay factor (default 0.2:
    each new observation contributes 20% of the decayed mean). *)

val record : t -> outcome -> unit
val set_analysis : t -> analysis -> unit

val invalidate : t -> unit
(** Drop ordering claims (proven k bounds and the last analysis) after
    a write to the relation; decayed latency aggregates survive. *)

val outcomes : t -> outcome list
(** Ring contents, newest first. *)

type summary = {
  observations : int;  (** Outcome records ever folded in. *)
  analyzed : bool;
  cardinality : int option;
  time_ordered : bool option;  (** Known only after an analysis. *)
  k_upper : int option;
      (** Smallest proven k bound across analyses and clean runs. *)
  constant_intervals : int option;  (** Decayed mean result size. *)
  distinct_endpoints : int option;
  mean_eval_ms : float option;
  source : string;
      (** Provenance: ["none"], ["analyze"], ["runtime"] or
          ["analyze+runtime"]. *)
}

val empty_summary : summary
val summary : t -> summary

val to_string : string -> t -> string
(** One [SHOW STATS] line for the named relation. *)

(** Bounded-memory distinct-count sketch (adaptive sampling): feeds the
    [ANALYZE] endpoint estimate. *)
module Distinct : sig
  type sketch

  val sketch : ?capacity:int -> unit -> sketch
  (** Default capacity 1024 kept hashes; relative error ~1/sqrt(capacity). *)

  val add : sketch -> int -> unit
  val estimate : sketch -> int

  val sample : sketch -> int list
  (** The kept values, sorted ascending — a uniform hash-based sample of
      the distinct values seen (at most the sketch's capacity).  Feeds
      equi-depth partition-boundary selection. *)
end

type store

val create_store : unit -> store
val store_get : store -> string -> t
(** Find-or-create, by case-folded name. *)

val store_find : store -> string -> t option
val store_names : store -> string list
(** Case-folded names with statistics, sorted. *)

val store_invalidate : store -> string -> unit
val store_to_string : store -> string
(** The [SHOW STATS] printout. *)

val store_to_metrics : Metrics.t -> store -> unit
(** Refresh per-relation gauges ([tempagg_stats_*], labelled by
    relation) from the store. *)
