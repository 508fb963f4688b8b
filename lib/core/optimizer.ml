type metadata = {
  cardinality : int;
  time_ordered : bool;
  retroactive_bound : int option;
  memory_budget : int option;
  expected_constant_intervals : int option;
  invertible_aggregate : bool;
  shard_spans : Temporal.Interval.t list;
  query_window : Temporal.Interval.t option;
}

let default_metadata ~cardinality =
  {
    cardinality;
    time_ordered = false;
    retroactive_bound = None;
    memory_budget = None;
    expected_constant_intervals = None;
    invertible_aggregate = false;
    shard_spans = [];
    query_window = None;
  }

type choice = {
  algorithm : Engine.algorithm;
  sort_first : bool;
  on_error : Engine.on_error;
  rationale : string;
  stats_source : string;
  scanned_shards : int;
  pruned_shards : int;
}

(* Evaluation shards spawn one domain each; past the core count the
   merge tax outweighs the parallelism, so surviving storage shards are
   grouped down to this many evaluation shards. *)
let max_eval_shards =
  Stdlib.max 2 (Stdlib.min 8 (Domain.recommended_domain_count ()))

let estimated_tree_bytes ~cardinality = ((4 * cardinality) + 1) * 16

(* A result at least this many times smaller than the relation counts as
   "very few constant intervals" (Section 6.3's single-year-of-days
   example). *)
let few_intervals_factor = 100

let choose_unsharded md =
  match md.expected_constant_intervals with
  | Some m
    when md.cardinality >= few_intervals_factor
         && m * few_intervals_factor <= md.cardinality ->
      {
        algorithm = Engine.Linked_list;
        sort_first = false;
        on_error = Engine.Fail;
        rationale =
          Printf.sprintf
            "expected result of ~%d constant intervals is tiny relative to \
             %d tuples; the linked list is adequate and cheapest in memory"
            m md.cardinality;
          stats_source = "declared metadata";
          scanned_shards = 0;
          pruned_shards = 0;
      }
  | _ -> (
      if md.time_ordered then
        {
          algorithm = Engine.Korder_tree { k = 1 };
          sort_first = false;
          (* The sortedness is declared, not verified: if the declaration
             is wrong, fall back rather than abort. *)
          on_error = Engine.Fallback;
          rationale =
            "relation already sorted by time: k-ordered aggregation tree \
             with k=1 gives the best time and memory";
          stats_source = "declared metadata";
          scanned_shards = 0;
          pruned_shards = 0;
        }
      else
        match md.retroactive_bound with
        | Some k ->
            {
              algorithm = Engine.Korder_tree { k };
              sort_first = false;
              on_error = Engine.Fallback;
              rationale =
                Printf.sprintf
                  "relation declared retroactively bounded (k=%d): k-ordered \
                   aggregation tree applies directly, no sorting required"
                  k;
          stats_source = "declared metadata";
          scanned_shards = 0;
          pruned_shards = 0;
            }
        | None -> (
            let tree_bytes = estimated_tree_bytes ~cardinality:md.cardinality in
            match md.memory_budget with
            | Some budget when tree_bytes > budget ->
                {
                  algorithm = Engine.Korder_tree { k = 1 };
                  sort_first = true;
                  (* Sorted by us, so order violations are impossible;
                     still fall back if the budget proves too tight even
                     for the k-ordered tree. *)
                  on_error = Engine.Fallback;
                  rationale =
                    Printf.sprintf
                      "unordered relation and the aggregation tree's ~%d \
                       bytes exceed the %d-byte budget: sort first, then \
                       k-ordered tree with k=1"
                      tree_bytes budget;
          stats_source = "declared metadata";
          scanned_shards = 0;
          pruned_shards = 0;
                }
            | Some _ | None ->
                if md.invertible_aggregate then
                  {
                    algorithm = Engine.Sweep;
                    sort_first = false;
                    on_error = Engine.Fail;
                    rationale =
                      "unordered relation, memory is available and the \
                       aggregate is invertible: the flat delta-sweep is a \
                       single cache-friendly O(n log n) pass over sorted \
                       endpoint events (its ~4n+1 flat cells fit the same \
                       budget as the tree's nodes)";
          stats_source = "declared metadata";
          scanned_shards = 0;
          pruned_shards = 0;
                  }
                else
                  {
                    algorithm = Engine.Aggregation_tree;
                    sort_first = false;
                    on_error = Engine.Fail;
                    rationale =
                      "unordered relation and memory is available: the \
                       aggregation tree is fastest on random order among \
                       the pointer-based algorithms, and the aggregate is \
                       not invertible, ruling out the delta-sweep's fast \
                       path";
          stats_source = "declared metadata";
          scanned_shards = 0;
          pruned_shards = 0;
                  }))

(* Shard pruning over a partitioned relation: only shards whose time
   range overlaps the query window can contribute to the answer, so the
   plan clips to those and — when more than one survives — evaluates
   them shard-parallel (one evaluation shard per surviving storage
   shard, grouped down to [max_eval_shards] domains; the evaluation
   layer aligns the parallel slices with the shard joints via
   [Engine.eval]'s [shard_offsets]). *)
let apply_shards md c =
  match md.shard_spans with
  | [] -> c
  | spans ->
      let total = List.length spans in
      let surviving =
        match md.query_window with
        | None -> total
        | Some w ->
            List.length
              (List.filter (fun s -> Temporal.Interval.overlaps s w) spans)
      in
      let pruned = total - surviving in
      let c =
        if surviving > 1 then
          {
            c with
            algorithm =
              Engine.Parallel
                {
                  domains = Stdlib.min surviving max_eval_shards;
                  inner = c.algorithm;
                };
            (* The inner choice's recovery policy carries over: every
               inner algorithm that can fail without a budget (a
               k-ordered tree) already comes with [Fallback], which
               [Engine.eval_robust] applies per shard. *)
          }
        else c
      in
      {
        c with
        scanned_shards = surviving;
        pruned_shards = pruned;
        rationale =
          Printf.sprintf
            "%s; partition pruning kept %d of %d shard(s), pruned %d%s"
            c.rationale surviving total pruned
            (if surviving > 1 then "; surviving shards run in parallel"
             else "");
      }

let choose md = apply_shards md (choose_unsharded md)

(* Merging observed statistics over declared metadata.

   Only properties the store actually proved are taken, and only where
   they beat what was declared: an observed sort order (ANALYZE k
   estimate of 0, or a clean k=0 run) upgrades [time_ordered]; an
   observed k bound fills a *missing* retroactive bound, but only when
   the bound is profitable — a k near n makes the k-ordered tree
   degenerate, so we require k <= max(1, n/4); a measured constant-
   interval count replaces the declared estimate.  Declared metadata is
   never overridden towards pessimism, and the exact cardinality (the
   planner reads it off the relation) is always trusted over the store.

   Whenever the plan leans on an observed ordering claim the recovery
   policy is forced to [Fallback]: statistics describe the past, and a
   write since the last ANALYZE could void them (stores invalidate on
   writes, but the policy must hold even for stale summaries). *)
let choose_observed (s : Obs.Stats.summary) md =
  if s.observations = 0 && not s.analyzed then choose md
  else begin
    let notes = ref [] in
    let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
    let observed_sorted =
      (match s.time_ordered with Some b -> b | None -> false)
      || match s.k_upper with Some 0 -> true | _ -> false
    in
    let ordering_claim = ref false in
    let md =
      if observed_sorted && not md.time_ordered then begin
        ordering_claim := true;
        note "observed time-ordered (k estimate 0)";
        { md with time_ordered = true }
      end
      else md
    in
    let md =
      match (md.time_ordered, md.retroactive_bound, s.k_upper) with
      | false, None, Some k when k > 0 && k <= Stdlib.max 1 (md.cardinality / 4)
        ->
          ordering_claim := true;
          note "observed k<=%d over %d tuples" k md.cardinality;
          { md with retroactive_bound = Some k }
      | _ -> md
    in
    let md =
      match s.constant_intervals with
      | Some m when md.expected_constant_intervals = None ->
          note "observed ~%d constant interval(s)" m;
          { md with expected_constant_intervals = Some m }
      | _ -> md
    in
    let c = choose md in
    match !notes with
    | [] -> c
    | notes ->
        {
          c with
          rationale =
            Printf.sprintf "%s [stats: %s]" c.rationale
              (String.concat "; " (List.rev notes));
          on_error = (if !ordering_claim then Engine.Fallback else c.on_error);
          stats_source = Printf.sprintf "observed (%s)" s.source;
        }
  end

(* Sweep vs nested-loop for an interval join (ROADMAP item 3).  The
   endpoint sweep costs two radix sorts plus active-map bookkeeping
   before it emits a single pair; on tiny inputs the naive nested loop
   finishes inside that setup time.  The crossover is coarse — anything
   past a few thousand candidate comparisons favours the sweep — so the
   rule is a cross-product threshold, with cardinalities taken from the
   statistics store when it has observed the relation (the planner's
   declared counts are the fallback). *)
let nested_loop_cross_limit = 4096

type join_choice = {
  sweep : bool;
  join_rationale : string;
  join_stats_source : string;
}

let choose_join ?left_stats ?right_stats ~left_cardinality ~right_cardinality
    () =
  let observed side (s : Obs.Stats.summary option) declared =
    match s with
    | Some { cardinality = Some n; source; _ } ->
        (n, Some (Printf.sprintf "%s n=%d (%s)" side n source))
    | _ -> (declared, None)
  in
  let n, ln = observed "left" left_stats left_cardinality in
  let m, rn = observed "right" right_stats right_cardinality in
  let notes = List.filter_map Fun.id [ ln; rn ] in
  let stats_source =
    if notes = [] then "declared metadata" else "observed (stats store)"
  in
  let suffix =
    if notes = [] then ""
    else Printf.sprintf " [stats: %s]" (String.concat "; " notes)
  in
  (* Avoid n*m overflow on absurd cardinalities: compare in float. *)
  let cross = float_of_int n *. float_of_int m in
  if cross <= float_of_int nested_loop_cross_limit then
    {
      sweep = false;
      join_rationale =
        Printf.sprintf
          "cross product %dx%d is within the nested-loop threshold (%d \
           comparisons): the naive loop beats the sweep's sort and \
           active-map setup%s"
          n m nested_loop_cross_limit suffix;
      join_stats_source = stats_source;
    }
  else
    {
      sweep = true;
      join_rationale =
        Printf.sprintf
          "cross product %dx%d exceeds the nested-loop threshold (%d): \
           the endpoint sweep touches each tuple once per emitted pair \
           instead of %.0f comparisons%s"
          n m nested_loop_cross_limit cross suffix;
      join_stats_source = stats_source;
    }

let pp_choice ppf c =
  Format.fprintf ppf "%s%s%s — %s"
    (Engine.name c.algorithm)
    (if c.sort_first then " (after sorting)" else "")
    (match c.on_error with
    | Engine.Fail -> ""
    | p -> Printf.sprintf " (on-error %s)" (Engine.on_error_to_string p))
    c.rationale
