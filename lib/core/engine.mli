(** Uniform dispatch over the temporal-aggregation algorithms. *)

open Temporal

type algorithm =
  | Linked_list  (** Section 4.2 — the naive one-scan list. *)
  | Aggregation_tree  (** Section 5.1 — best for randomly ordered input. *)
  | Korder_tree of { k : int }
      (** Section 5.3 — garbage-collected tree for k-ordered input. *)
  | Balanced_tree  (** Section 7 future work — AVL-balanced variant. *)
  | Two_scan  (** Section 4.1 — Tuma's prior-work baseline. *)
  | Sweep
      (** Flat-array endpoint sweep (see {!Sweep}): delta summation for
          invertible monoids, flat segment tree otherwise. *)
  | Parallel of { domains : int; inner : algorithm }
      (** Divide-and-conquer over OCaml 5 domains (see {!Parallel}):
          shard, evaluate each shard with [inner], merge pairwise. *)

val name : algorithm -> string
(** E.g. ["linked-list"], ["ktree(4)"], ["parallel(4,sweep)"]. *)

val of_string : string -> (algorithm, string) result
(** Inverse of {!name}; accepts ["ktree(K)"] with any non-negative K,
    ["parallel(D)"] (inner defaulting to the sweep) and
    ["parallel(D,ALGO)"] with any nested algorithm, and underscores in
    place of hyphens (for TSQL [USING] hints, where an identifier cannot
    contain a hyphen). *)

val all : algorithm list
(** One representative of each family (Korder with [k = 1]; Parallel with
    2 domains over the sweep). *)

val node_bytes : algorithm -> int
(** Per-node memory cost: 16 except {!Balanced_tree} (20); {!Parallel}
    inherits its inner algorithm's cost. *)

val eval :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ?shard_offsets:int array ->
  algorithm ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t
(** Run the chosen algorithm.  While tracing records, the run is an
    ["eval"] span that, on exit (a raise included), carries the
    instrument's [allocated_nodes] and [peak_bytes]; one is made when
    [instrument] is absent, as every algorithm would.

    [shard_offsets] (meaningful only when [algorithm] is [Parallel _])
    pins the outermost parallel level's shard boundaries to explicit
    indices of the input — see {!Parallel.eval}'s [offsets].  A
    time-partitioned relation passes its shard joints here so each
    storage shard is evaluated by exactly one domain.
    @raise Korder_tree.Order_violation from [Korder_tree _] when the input
    is not k-ordered for the configured k. *)

val eval_with_stats :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?shard_offsets:int array ->
  algorithm ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t * Instrument.snapshot

val snapshot_of_spans : Obs.Trace.span list -> Instrument.snapshot
(** The engine figures of a traced run, folded from the ["eval"] spans
    among [spans] that sit in no other ["eval"] or ["shard"] span (the
    enclosing instrument already absorbed those): allocations add up,
    the largest [peak_bytes] wins, and [peak_live] is that peak over its
    own algorithm's {!node_bytes}.  All zero when no eval was recorded. *)

(** {1 Robust evaluation}

    {!eval_robust} wraps {!eval} with per-query resource budgets (see
    {!Guard}) and a declarative fallback chain, so that recoverable
    failures degrade the {e plan} rather than the {e answer}:

    - {!Korder_tree.Order_violation} retries with a doubled k (capped at
      4096), then concedes to the order-oblivious aggregation tree;
    - {!Guard.Budget_exceeded} on any pointer-based structure retries
      with the flat {!Sweep} (one slot per distinct endpoint — the
      cheapest memory profile here);
    - a failed shard of a {!Parallel} evaluation is re-evaluated inline
      (order violation → aggregation tree, blown budget → sweep) without
      aborting the other shards;
    - {!Guard.Deadline_exceeded} is always terminal — retrying cannot
      recover wall-clock time already spent.

    Every recovery step is recorded as a {!degradation}; nothing degrades
    silently. *)

type on_error =
  | Fail  (** Propagate the first failure as an [Error]. *)
  | Fallback  (** Walk the fallback chain; [Error] only when it runs dry. *)
  | Skip
      (** Like [Fallback], but a top-level k-ordered tree drops (and
          counts) misordered tuples instead of abandoning the attempt. *)

val on_error_to_string : on_error -> string
val on_error_of_string : string -> (on_error, string) result

type degradation = { stage : string; reason : string; action : string }
(** One recovery event: which stage failed, why, and what was done. *)

val degradation_to_string : degradation -> string

val degradations_to_metrics : Obs.Metrics.t -> degradation list -> unit
(** Count each degradation into the [tempagg_degradations_total] counter,
    labelled by the stage that failed. *)

type error =
  | Not_k_ordered of { position : int }
  | Budget_exhausted of { budget_bytes : int; used_bytes : int }
  | Deadline_exhausted of { deadline_ms : float; elapsed_ms : float }
  | Eval_failed of string

val error_to_string : error -> string

val eval_robust :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?on_error:on_error ->
  ?memory_budget:int ->
  ?deadline_ms:float ->
  ?shard_offsets:int array ->
  algorithm ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  ('r Timeline.t * degradation list, error) result
(** [eval_robust alg monoid data] evaluates under a {!Guard} built from
    [memory_budget] (bytes of algorithm state) and [deadline_ms]
    (wall-clock, spanning all retries — a retry does not restart the
    clock).  [on_error] defaults to [Fallback].  The input is
    materialized once up front so retries replay identical tuples even
    from an ephemeral (single-pass) sequence.  Degradations are listed
    oldest first.  Exceptions that the chain cannot interpret (genuine
    bugs) propagate unchanged.

    [shard_offsets] aligns a [Parallel _] plan's shards with a
    partitioned relation's storage shards (see {!eval}); under a
    [Parallel _] plan the memory budget is additionally {e split} evenly
    across the concurrent shards ({!Guard.split}), since their live
    bytes accumulate at the same time.

    While tracing records, the run is one ["eval-robust"] span carrying
    the input count (the materialization runs inside it), with one
    ["attempt"] span per attempt carrying its [outcome] (["ok"] or the
    failure reason) and, under it, the attempt's ["eval"] span with its
    [allocated_nodes] and [peak_bytes] — aborted attempts included. *)
