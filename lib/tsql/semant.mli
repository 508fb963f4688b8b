(** Semantic analysis: resolve and type-check a parsed query against a
    catalog, producing an executable plan.

    Enforced rules:
    - the FROM relation must exist in the catalog;
    - the select list must contain at least one aggregate;
    - a plain column in the select list must appear in GROUP BY;
    - all referenced columns must exist, with types compatible with their
      use (SUM/AVG need numeric columns; WHERE literals must match the
      column's type, ints being acceptable for float columns);
    - [COUNT( * )] takes no column, other aggregates take exactly one;
    - a USING hint must name a known algorithm.

    When no USING hint is given, the algorithm is chosen by
    {!Tempagg.Optimizer.choose_observed} from what is known about the
    relation (cardinality, physical time-orderedness, expected result
    size under span grouping), about the query (whether every selected
    aggregate is invertible — COUNT/SUM/AVG — which enables the
    delta-sweep), and from the catalog's statistics store (observed k
    bounds, measured result sizes).  Passing [~adaptive:false] ignores
    the store and plans from declared metadata alone
    ({!Tempagg.Optimizer.choose}). *)

type agg_spec = {
  fn : Ast.agg_fun;
  column : int option;  (** [None] for [COUNT( * )]. *)
  column_ty : Relation.Value.ty option;
  distinct : bool;  (** Duplicate elimination before aggregation. *)
  out_name : string;  (** Result-relation column name, e.g. [count(name)]. *)
  out_ty : Relation.Value.ty;
}

type join_spec = {
  right_relation : Relation.Trel.t;
  right_name : string;
  predicate : Join.Predicate.t;
  strategy : Join.Engine.strategy;
      (** Sweep vs nested loop, from
          {!Tempagg.Optimizer.choose_join} on the two sides'
          cardinalities (observed statistics preferred). *)
  join_rationale : string;
  join_stats_source : string;
  right_shard_layout : (Temporal.Interval.t * int) list;
      (** The right side's shard layout, trusted under the same
          cardinality check as [shard_layout]; lets the evaluator skip
          right-side shards outside the window. *)
  right_scanned : int;
  right_pruned : int;
}

type plan = {
  relation : Relation.Trel.t;
  source_name : string;
  join : join_spec option;
      (** Interval join: both sides are clipped to the window (skipping
          shards the window misses), paired under [predicate], and the
          joined stream — valid times from
          {!Join.Predicate.result_interval} — feeds the filter,
          grouping and aggregation below.  The ON clause is evaluated
          on the {e clipped} intervals, which is what makes per-side
          shard pruning sound. *)
  filter : Relation.Tuple.t -> bool;  (** Compiled WHERE conjunction. *)
  group_columns : (string * int) list;  (** GROUP BY name and column index. *)
  aggregates : agg_spec list;
  algorithm : Tempagg.Engine.algorithm;
  sort_first : bool;  (** Sort the relation by time before evaluating. *)
  on_error : Tempagg.Engine.on_error;
      (** Recovery policy: an explicit [ON ERROR] clause, else [Fail]
          for a [USING] hint, else the optimizer's recommendation.
          {!Eval.execute} honours it (any policy but [Fail] takes the
          robust engine path); {!Eval.run} ignores it. *)
  granule : Temporal.Granule.t option;  (** [Some _] for GROUP BY SPAN. *)
  window : Temporal.Interval.t option;
      (** DURING window: evaluation is restricted to these instants. *)
  out_schema : Relation.Schema.t;
  rationale : string;  (** Why this algorithm (hint or optimizer rule). *)
  stats_source : string;
      (** Provenance of the decisive planner inputs: ["declared
          metadata"], ["observed (...)"], or ["USING hint"]. *)
  plain_scan : bool;
      (** The evaluated stream is exactly the relation in physical
          order (no filter/clip/group/distinct/granule/pre-sort), so
          run-time ordering observations transfer to the relation. *)
  shard_layout : (Temporal.Interval.t * int) list;
      (** The relation's storage-shard layout from
          {!Catalog.layout} ([[]] = unpartitioned), kept only when its
          cardinalities sum to the relation's.  {!Eval} uses it to skip
          shards outside the DURING window without touching their
          tuples, and to pin a [Parallel] plan's evaluation shards to
          storage shards. *)
  scanned_shards : int;
      (** Shards overlapping the window (all of them without a window);
          0 for an unpartitioned relation. *)
  pruned_shards : int;
      (** Shards skipped outright; 0 for an unpartitioned relation. *)
}

val analyze : ?adaptive:bool -> Catalog.t -> Ast.query -> (plan, string) result
(** [adaptive] (default true) lets the planner consult the catalog's
    statistics store. *)

val predicate_filter :
  Relation.Schema.t ->
  Ast.predicate list ->
  (Relation.Tuple.t -> bool, string) result
(** Compile a WHERE conjunction against a schema — the same resolution
    and typing rules as {!analyze}, exposed for the session's DELETE
    path and view maintenance. *)

val tuple_of_literals :
  Relation.Schema.t ->
  Ast.literal list ->
  Temporal.Interval.t ->
  (Relation.Tuple.t, string) result
(** Type-check an INSERT's value list against a schema (arity and
    per-column literal compatibility) and build the tuple with the given
    valid interval. *)
