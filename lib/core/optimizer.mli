(** The query-optimizer strategy rules of Section 6.3.

    Given what the system knows about a relation — cardinality, declared
    or detected sort order, a declared retroactive bound, the available
    memory — choose the evaluation algorithm:

    - very few expected constant intervals (coarse granularity, single
      year of days, ...): the linked list is "quite adequate";
    - relation sorted by time: k-ordered aggregation tree with [k = 1];
    - relation declared retroactively bounded by [k]: k-ordered tree with
      that [k], no sorting required;
    - otherwise, if memory is cheaper than the disk I/O of sorting:
      the flat delta-{!Engine.Sweep} when the aggregate is invertible
      (count/sum/avg — one cache-friendly pass, see {!Sweep}), else the
      aggregation tree;
    - otherwise: sort first, then the k-ordered tree with [k = 1]
      ("the simplest strategy", the paper's headline recommendation). *)

type metadata = {
  cardinality : int;
  time_ordered : bool;  (** Known (declared or verified) sorted by time. *)
  retroactive_bound : int option;
      (** Declared bound on update delay, as a k-ordering bound
          (Section 5.2: retroactively bounded relations are k-ordered for
          uniform arrival). *)
  memory_budget : int option;  (** Bytes available for algorithm state. *)
  expected_constant_intervals : int option;
      (** Estimate of the result size, when grouping coarser than the
          data (e.g. by span). *)
  invertible_aggregate : bool;
      (** The aggregate monoid has an inverse ({!Monoid.invertible}):
          count/sum/avg/variance but not min/max.  Enables the
          delta-sweep's O(n log n) fast path. *)
  shard_spans : Temporal.Interval.t list;
      (** Time ranges of a partitioned relation's storage shards, in
          shard order; [[]] for an unpartitioned relation.  Enables
          shard pruning and shard-parallel evaluation. *)
  query_window : Temporal.Interval.t option;
      (** The query's valid-time clip window (TSQL [DURING] /
          [WHERE vt OVERLAPS]); shards disjoint from it are pruned. *)
}

val default_metadata : cardinality:int -> metadata
(** Unordered, no bound, unlimited memory, unknown result size,
    aggregate assumed non-invertible. *)

type choice = {
  algorithm : Engine.algorithm;
  sort_first : bool;
      (** The chosen algorithm requires the relation sorted by time
          first. *)
  on_error : Engine.on_error;
      (** Recommended recovery policy: [Fallback] when the choice leans
          on declared-but-unverified metadata (a wrongly declared sort
          order or retroactive bound would otherwise abort the query),
          [Fail] when the algorithm cannot fail recoverably.  A TSQL
          [ON ERROR] clause overrides it. *)
  rationale : string;  (** Human-readable summary of the applied rule. *)
  stats_source : string;
      (** Where the decisive inputs came from: ["declared metadata"], or
          ["observed (...)"] when {!choose_observed} folded statistics
          from the store into the decision. *)
  scanned_shards : int;
      (** Shards the plan actually scans (those overlapping the query
          window).  0 for an unpartitioned relation. *)
  pruned_shards : int;
      (** Shards skipped outright because their time range misses the
          query window.  0 for an unpartitioned relation. *)
}

val max_eval_shards : int
(** Cap on concurrent evaluation shards for a sharded plan (surviving
    storage shards are grouped down to at most this many domains):
    [max 2 (min 8 (Domain.recommended_domain_count ()))]. *)

val choose : metadata -> choice
(** Apply the Section 6.3 rules, then — for a partitioned relation
    ([shard_spans <> []]) — shard pruning: only shards overlapping
    [query_window] are scanned, and when more than one survives the
    chosen algorithm is wrapped in {!Engine.Parallel} (one evaluation
    shard per surviving storage shard, at most {!max_eval_shards}
    domains).  The recovery policy is the inner choice's: a k-ordered
    inner tree, the only one that can fail without a budget, already
    carries [Fallback].  The rationale cites kept/pruned shard
    counts. *)

val choose_observed : Obs.Stats.summary -> metadata -> choice
(** [choose] with observed statistics merged over the declared metadata:
    an observed sort order upgrades [time_ordered]; an observed k bound
    fills a missing [retroactive_bound] when profitable
    ([k <= max 1 (n/4)]); a measured constant-interval count replaces a
    missing estimate.  When an observed ordering claim is load-bearing
    the recovery policy is forced to [Fallback] (statistics can be
    stale).  The rationale gains a ["[stats: ...]"] suffix citing what
    was used; with an empty summary this is exactly [choose]. *)

type join_choice = {
  sweep : bool;  (** Endpoint-sweep join; [false] means nested loop. *)
  join_rationale : string;
  join_stats_source : string;
      (** ["declared metadata"], or ["observed (stats store)"] when a
          statistics summary supplied a cardinality. *)
}

val choose_join :
  ?left_stats:Obs.Stats.summary ->
  ?right_stats:Obs.Stats.summary ->
  left_cardinality:int ->
  right_cardinality:int ->
  unit ->
  join_choice
(** Pick the interval-join strategy: nested loop when the cross product
    is small enough that the sweep's two radix sorts and active-map
    bookkeeping cost more than just comparing every pair, the endpoint
    sweep otherwise.  Cardinalities observed by the statistics store
    take precedence over the declared ones and are cited in a
    ["[stats: ...]"] rationale suffix, mirroring {!choose_observed}. *)

val estimated_tree_bytes : cardinality:int -> int
(** Upper bound on aggregation-tree memory for an n-tuple relation: up to
    2 unique timestamps per tuple, 2 nodes per unique timestamp plus the
    initial node, 16 bytes per node. *)

val pp_choice : Format.formatter -> choice -> unit
