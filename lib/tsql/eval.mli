(** Query evaluation.

    A query's result is itself a valid-time relation: one tuple per
    (group, constant interval), carrying the group-by values, the
    aggregate values, and the constant interval as its valid time —
    coalesced so that adjacent intervals with identical values are merged
    (TSQL2 result semantics, paper Section 5.1).

    For ungrouped queries the result covers the whole time-line
    (including leading/trailing intervals where the aggregate is empty,
    as in the paper's Table 1 which begins at time 0).  For queries with
    a GROUP BY attribute, each group's timeline is clipped to that
    group's lifespan, since an unbounded all-empty timeline per group is
    rarely useful.

    Two entry points carry every query: {!plan} turns a parsed query
    into an executable plan, and {!execute} evaluates a plan and records
    its outcome.  {!query} and {!explain} are their text-taking
    wrappers. *)

val plan :
  ?adaptive:bool ->
  ?algorithm:Tempagg.Engine.algorithm ->
  ?domains:int ->
  ?on_error:Tempagg.Engine.on_error ->
  ?join_strategy:Join.Engine.strategy ->
  ?profile:Obs.Profile.t ->
  Catalog.t ->
  Ast.query ->
  (Semant.plan, string) result
(** {!Semant.analyze}, then the overrides.  [?adaptive] (default true)
    lets the planner consult the catalog's statistics store — the CLI's
    [--no-adaptive] turns it off.  [?algorithm] replaces the planned
    evaluation algorithm (the CLI's [--algorithm]); [?domains] above 1
    wraps it in {!Tempagg.Engine.Parallel} over that many OCaml domains
    ([--domains]); [?on_error] replaces the recovery policy
    ([--on-error]); [?join_strategy] pins the interval-join strategy
    ([--join-strategy]; ignored for join-free queries).  [?profile]
    receives the query text, the chosen plan (algorithm, rationale,
    statistics source, join strategy, k estimate) and the planning time
    as its ["plan"] phase. *)

type report = {
  result : Relation.Trel.t;
  degradations : Tempagg.Engine.degradation list;
      (** Every recovery event across all per-aggregate, per-group
          evaluations and the join, in occurrence order.  Empty on a
          clean run. *)
  join : Join.Engine.strategy option;
      (** The interval-join strategy that actually ran: the planned one,
          or [Nested_loop] when a sweep that blew its memory budget fell
          back.  [None] for a join-free plan. *)
}

val execute :
  ?memory_budget:int ->
  ?deadline_ms:float ->
  ?profile:Obs.Profile.t ->
  Catalog.t ->
  Semant.plan ->
  (report, string) result
(** Evaluate a plan and feed its outcome into the catalog's statistics
    store ({!record_outcome}).  The engine path is chosen here and
    nowhere else: a plan whose recovery policy is [Fail], run without a
    budget, a deadline or a profile, goes through
    {!Tempagg.Engine.eval}; anything else goes through
    {!Tempagg.Engine.eval_robust}.  There, budgets and deadlines are
    enforced, failures walk the plan's recovery policy (its [ON ERROR]
    clause, an [?on_error] given to {!plan}, or the optimizer's
    recommendation), and every degradation is reported — never applied
    silently.  [?profile] records every attempt (aborted ones included),
    degradations, phase timings and the output size; profiling forces
    instrumentation, so the run costs what
    {!Tempagg.Engine.eval_with_stats} costs, but it never changes the
    answer.  [Error _] is ["evaluation failed: "] followed by
    {!Tempagg.Engine.error_to_string}'s rendering. *)

val run : Semant.plan -> Relation.Trel.t
(** Evaluate a plan on the plain engine path ({!Tempagg.Engine.eval},
    whatever its recovery policy) without recording the outcome — for
    callers that time the evaluation alone.
    @raise Tempagg.Korder_tree.Order_violation when a k-ordered tree
    meets input that is not k-ordered. *)

type value_monoid =
  | Value_monoid : (Relation.Value.t, 's, Relation.Value.t) Tempagg.Monoid.t -> value_monoid
      (** An aggregate monoid over relation values with its state type
          abstracted — what a heterogeneous list of per-aggregate
          evaluations (or live views) carries. *)

val monoid_of_spec : Semant.agg_spec -> value_monoid
(** The monoid an analyzed aggregate evaluates: COUNT over any column,
    SUM specialized to the column's numeric type, AVG as float,
    MIN/MAX by {!Relation.Value.compare}.  Shared by the batch path
    here and the incremental maintenance in {!Session}. *)

val zip_timelines :
  'a Temporal.Timeline.t list -> 'a list Temporal.Timeline.t
(** Refine a non-empty list of timelines over a common cover into one
    timeline of value lists (in input order). *)

val query :
  ?adaptive:bool ->
  ?algorithm:Tempagg.Engine.algorithm ->
  ?domains:int ->
  ?join_strategy:Join.Engine.strategy ->
  Catalog.t ->
  string ->
  (Relation.Trel.t, string) result
(** Parse, {!plan} (with the given overrides) and {!execute}: the whole
    pipeline, answering with the result relation. *)

val record_outcome :
  ?profile:Obs.Profile.t ->
  Catalog.t ->
  Semant.plan ->
  elapsed_ms:float ->
  degradations:int ->
  Relation.Trel.t ->
  unit
(** Feed one successful run into the catalog's statistics store: input
    cardinality, algorithm, latency, peak bytes (when profiled), and —
    only for a plain scan — the result's constant-interval count and
    any k bound the run proved (a bare k-ordered tree completing with
    every aggregate consuming every tuple).  {!execute} calls this
    itself; it is exposed for callers that time {!run} on their own. *)

val explain :
  ?adaptive:bool ->
  ?algorithm:Tempagg.Engine.algorithm ->
  ?domains:int ->
  ?on_error:Tempagg.Engine.on_error ->
  ?join_strategy:Join.Engine.strategy ->
  Catalog.t ->
  string ->
  (string, string) result
(** Parse and {!plan} only; describe the chosen strategy (algorithm,
    sorting, grouping, join strategy and rationale for join queries,
    recovery policy when not [fail]) without running the query.  Takes
    the same overrides as {!plan} so [explain] shows exactly what
    {!execute} would run. *)
