(** Abstract syntax of the TSQL2 subset.

    The paper (Section 2) presents temporal aggregation through TSQL2
    queries such as

    {v
    SELECT COUNT(Name) FROM Employed
    SELECT Dept, AVG(Salary) FROM Employed GROUP BY Dept
    v}

    This subset covers aggregate queries over one relation or an
    interval join of two: a select list of columns and aggregate calls,
    an optional Allen-predicate JOIN, an optional conjunction of
    comparison predicates, attribute grouping, temporal grouping (by
    instant, the TSQL2 default, or by span), and an evaluation hint:

    {v
    query  ::= SELECT items FROM ident
               [JOIN ident ON ident '.' vt rel ident '.' vt]
               [DURING '[' int ',' stop ']']
               [WHERE pred {AND pred}] [GROUP BY group {, group}]
               [USING algo] [ON ERROR policy] [;]
    rel    ::= BEFORE | MEETS | OVERLAPS | FINISHED_BY | CONTAINS
             | STARTS | EQUALS | STARTED_BY | DURING | FINISHES
             | OVERLAPPED_BY | MET_BY | AFTER | INTERSECTS
    stop   ::= int | oo | forever
    items  ::= item {, item}
    item   ::= col | fn '(' [DISTINCT] col ')' | COUNT '(' '*' ')'
    col    ::= ident ['.' ident]  ; qualified in join queries
    fn     ::= COUNT | SUM | AVG | MIN | MAX
    pred   ::= col op literal ; op in = <> < <= > >=
    group  ::= col | INSTANT | SPAN int
    algo   ::= ident ['(' int [',' algo] ')']
               e.g. USING ktree(4), USING parallel(4, sweep)
    policy ::= FAIL | FALLBACK | SKIP
    v} *)

type agg_fun = Count | Sum | Avg | Min | Max

type select_item =
  | Column of string
  | Aggregate of { fn : agg_fun; arg : string option; distinct : bool }
      (** [arg = None] is [COUNT( * )]; [distinct] adds duplicate
          elimination (paper Section 7), e.g. [COUNT(DISTINCT name)]. *)
  | Star
      (** [SELECT *] — only valid against a view, whose materialized
          timeline already fixes the output columns. *)

type comparison_op = Eq | Neq | Lt | Le | Gt | Ge

type literal = Lint of int | Lfloat of float | Lstring of string

type predicate = { column : string; op : comparison_op; value : literal }

type temporal_grouping =
  | By_instant  (** TSQL2's default temporal grouping. *)
  | By_span of int  (** Fixed-length spans (Sections 2 and 7). *)

type window = { w_start : int; w_stop : int option }
(** A DURING window: the result is restricted to these instants
    ([w_stop = None] means forever).  Constrains the evaluation domain —
    the Section 6.3 "only interested in the results for a single year"
    case. *)

type join_clause = { jright : string; jpred : Join.Predicate.t }
(** [FROM from JOIN jright ON from.vt <pred> jright.vt].  The ON
    clause's side order is fixed (left operand is the FROM relation),
    so the clause carries only the right relation and the predicate. *)

type query = {
  select : select_item list;
  from : string;
  join : join_clause option;
      (** Interval join against a second base relation; the joined
          tuples (valid time from {!Join.Predicate.result_interval})
          feed the rest of the pipeline. *)
  during : window option;  (** valid-time window *)
  where : predicate list;  (** conjunction; empty = no filter *)
  group_by : string list;  (** attribute (value) grouping *)
  grouping : temporal_grouping;
  using : string option;  (** evaluation-algorithm hint *)
  on_error : Tempagg.Engine.on_error option;
      (** [ON ERROR] recovery policy; [None] leaves the choice to the
          optimizer (see {!Tempagg.Optimizer.choice}). *)
}

(** Top-level statements: queries plus the session-mutating DDL/DML of
    the live subsystem.

    {v
    stmt ::= query
           | EXPLAIN ANALYZE query
           | CREATE VIEW ident AS query
           | REFRESH VIEW ident
           | DROP VIEW ident
           | CREATE TABLE ident '(' col {, col} ')'
             PARTITION BY RANGE '(' vt ')' ['(' int {, int} ')']
           | INSERT INTO ident VALUES '(' literal {, literal} ')'
             DURING '[' int ',' stop ']'
           | DELETE FROM ident [WHERE pred {AND pred}]
           | ANALYZE ident
           | SHOW STATS
           | SHOW PARTITIONS
    col  ::= ident ty ; ty in INT | FLOAT | STRING (and synonyms)
    v} *)
type statement =
  | Select of query
  | Explain_analyze of query
      (** Execute the query and report how it ran ({!Eval.analyze})
          instead of rows. *)
  | Create_view of { name : string; definition : query }
  | Refresh_view of string
  | Drop_view of string
  | Create_table of {
      name : string;
      columns : (string * Relation.Value.ty) list;
      boundaries : int list;
          (** Interior [PARTITION BY RANGE (vt)] shard starts, strictly
              increasing; [[]] creates a single shard (later splits and
              [ANALYZE] repartitioning refine it). *)
    }
  | Insert_into of { relation : string; values : literal list; window : window }
  | Delete_from of { relation : string; where : predicate list }
  | Analyze of string
      (** One sampled scan of the named relation, refreshing its entry in
          the statistics store — and, for a partitioned relation,
          recomputing shard boundaries from the endpoint sketch. *)
  | Show_stats  (** Print the statistics store, one line per relation. *)
  | Show_partitions
      (** Print every partitioned relation's shard layout: ranges,
          cardinalities, I/O counters and pruning totals. *)
  | Show_trace
      (** Print the tracing context: current request id and the
          flight-recorder ring capacity and pressure. *)
  | Show_recorder
      (** Print the flight recorder's retention state: ring pressure
          plus one line per pinned trace (id, reason, span count). *)
  | Show_metrics
      (** The in-band twin of the METRICS protocol verb.  The server
          answers it on its event loop, as METRICS, before it reaches a
          session. *)
  | Show_slo
      (** Print the latest SLO burn-rate report (serve-mode hosts with
          [--slo]; other sessions answer with a pointer at the flag). *)

val agg_fun_to_string : agg_fun -> string
val op_to_string : comparison_op -> string
val literal_to_string : literal -> string
(** A literal in the lexer's own spelling: a string with its quotes
    doubled, a float as the shortest [digits.digits] that reads back to
    it.  Non-negative literals — all the parser produces — round-trip. *)

val select_item_to_string : select_item -> string
val to_string : query -> string
(** Re-render a query (normalized keywords and spacing):
    [Parser.parse (to_string q) = Ok q] for every parsed [q]. *)

val statement_to_string : statement -> string
(** Re-render a statement; {!Select} renders via {!to_string}.  The
    canonical form — {!Session} uses it as the query-cache key. *)
