(** Mutable query sessions: live views over changing base relations.

    A session owns a set of {e base relations} (seeded from a
    {!Catalog}) that accept [INSERT INTO] and [DELETE FROM], a registry
    of views created with [CREATE VIEW name AS query], and a
    staleness-tracked query cache ({!Live.Cache}).

    {b View maintenance.}  An ungrouped, non-DISTINCT, by-instant view
    definition is maintained {e incrementally}: one {!Live.View} per
    selected aggregate, patched in place by every insert/delete on the
    source relation (deletes retire exactly the handles the insert
    registered).  Anything else — GROUP BY, SPAN grouping, DISTINCT —
    falls back to {e recompute} maintenance: the materialized rows are
    marked stale by writes and re-evaluated on the next read (or on
    [REFRESH VIEW]).

    {b View queries.}  Only [SELECT * FROM view [DURING [a,b]]] may
    target a view: the session answers it from the materialized timeline
    (clipped to the window), consulting the cache first.  Cache entries
    are keyed by the canonical statement text and invalidated precisely:
    a write to the source relation drops exactly the entries whose
    interval overlaps the written tuple's valid time.

    All counters accumulate in a shared {!Live.Stats}. *)

type t

type outcome =
  | Rows of Relation.Trel.t  (** A SELECT's result relation. *)
  | Ack of string  (** DDL / DML acknowledgement. *)

val create :
  ?cache_capacity:int ->
  ?adaptive:bool ->
  ?data_dir:string ->
  ?split_threshold:int ->
  Catalog.t ->
  t
(** A session whose base relations are the catalog's bindings (snapshot:
    later catalog changes are not seen).  [cache_capacity] bounds the
    query cache (default 128 entries).  The catalog's statistics store
    is inherited (shared, mutable); [adaptive] (default true) lets the
    planner consult it — turned off by the CLI's [--no-adaptive].
    Writes to a base relation invalidate its ordering statistics either
    way.

    [data_dir] is where [CREATE TABLE ... PARTITION BY RANGE (vt)]
    places partition directories (created with any missing parents on
    first use; a temp dir is made when absent); [split_threshold] caps a partition shard's cardinality
    before it splits (defaulting to {!Storage.Partition}'s). *)

val exec : t -> string -> (outcome, string) result
(** Parse and execute one statement. *)

val exec_statement :
  ?memory_budget:int ->
  ?deadline_ms:float ->
  ?on_error:Tempagg.Engine.on_error ->
  ?profile:Obs.Profile.t ->
  t ->
  Ast.statement ->
  (outcome, string) result
(** Execute one parsed statement.  A SELECT or EXPLAIN ANALYZE against a
    base relation is planned once with {!Eval.plan} ([?on_error]
    replacing the query's own [ON ERROR] clause or the optimizer's
    recommendation) and evaluated once with {!Eval.execute}, which
    picks the engine path: the guard budgets, a profile or a recovery
    policy other than [fail] run it on the robust engine, so a blown
    budget walks the fallback chain instead of failing outright and
    {!last_degradations} reports how many recovery events occurred.
    [?profile] is filled from that same run (EXPLAIN ANALYZE answers
    with it, creating one when none is given), so taking a profile
    never changes an answer.  View answers, DDL and DML ignore the
    budgets and the profile — they are bounded by construction.  This is
    how the network server's admission controller degrades saturated
    queries instead of shedding them. *)

val last_degradations : t -> int
(** Number of degradations reported by the most recent statement
    (0 for a clean run). *)

val last_join : t -> string option
(** Join strategy the most recent statement's plan chose (e.g.
    ["sweep-join"]), with a marker appended when the evaluation
    abandoned it for the nested-loop retry (["sweep-join ->
    nested-loop-join (fallback)"]).  [None] for join-free statements. *)

val catalog : t -> Catalog.t
(** The current base relations, materialized as an immutable catalog. *)

val relation : t -> string -> Relation.Trel.t option
(** One base relation's current contents (case-insensitive name). *)

val base_names : t -> string list
val view_names : t -> string list

val view_version : t -> string -> int option
(** The view's maintenance version: bumped by every write to its source
    and by [REFRESH VIEW]. *)

val view_strategy : t -> string -> string option
(** ["incremental"] or ["recompute"]. *)

val stats : t -> Live.Stats.t
val cache_length : t -> int

val store : t -> Obs.Stats.store
(** The session's per-relation statistics store (shared with every
    catalog it materializes). *)

val replace_base : t -> string -> Relation.Trel.t -> unit
(** Swap a base relation's contents wholesale (registering the name if
    new) — how hosts push a fresh scrape of the self-relations into a
    session.  The relation's ordering statistics and overlapping cache
    entries are invalidated; dependent incremental views are rebuilt
    from the new contents, recompute views marked stale.
    @raise Invalid_argument if the name exists with a different
    schema. *)

val set_introspection : slo:(unit -> string) -> t -> unit
(** Attach the [SHOW SLO] body.  Each statement calls the provider at
    execution time; sessions without one answer with a pointer at the
    flag that would attach it.  The provider must be safe to call from
    whichever thread executes statements.  [SHOW METRICS] never reaches
    a session through the server, which answers it on its event loop;
    a session answers it with a pointer there. *)

val add_partition : t -> string -> Storage.Partition.t -> unit
(** Register an opened {!Storage.Partition} as a base relation
    (replacing any same-named one): queries see its materialized tuples
    with the shard layout attached for pruning and shard-parallel
    plans, and INSERT/DELETE/ANALYZE maintain the partition on disk. *)

val partitions : t -> (string * Storage.Partition.t) list
(** The partitioned base relations, sorted by name — the [SHOW
    PARTITIONS] rows and the server's per-relation shard gauges. *)
