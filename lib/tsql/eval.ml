open Temporal
open Relation

(* A growable array: the evaluated stream is built in one pass, and its
   length is known only once the filter and the window have run.  The
   first push allocates [capacity] slots, so a caller that knows the
   likely length gets one exact allocation instead of a doubling
   series. *)
type 'a buffer = {
  mutable items : 'a array;
  mutable length : int;
  capacity : int;
}

let buffer ?(capacity = 16) () = { items = [||]; length = 0; capacity }

let push b x =
  if b.length = Array.length b.items then begin
    let bigger = Array.make (Stdlib.max 1 (Stdlib.max b.capacity (2 * b.length))) x in
    Array.blit b.items 0 bigger 0 b.length;
    b.items <- bigger
  end;
  b.items.(b.length) <- x;
  b.length <- b.length + 1

let contents b =
  if b.length = Array.length b.items then b.items
  else Array.sub b.items 0 b.length

(* COUNT( * ) consumes every tuple; column aggregates skip SQL NULLs. *)
let consumes (spec : Semant.agg_spec) t =
  match spec.Semant.column with
  | None -> true
  | Some i -> not (Value.is_null (Tuple.value t i))

(* One (interval, value) pair per tuple this aggregate consumes. *)
let data_for tuples (spec : Semant.agg_spec) =
  let out = buffer ~capacity:(Array.length tuples) () in
  Array.iter
    (fun t ->
      if consumes spec t then
        push out
          ( Tuple.valid t,
            match spec.Semant.column with
            | None -> Value.Null
            | Some i -> Tuple.value t i ))
    tuples;
  contents out

(* Mutable context for one guarded run ([evaluate]'s robust path): the
   budgets to enforce and the degradation events accumulated across
   every per-aggregate, per-group engine evaluation. *)
type robust_ctx = {
  memory_budget : int option;
  deadline_ms : float option;
  mutable events : Tempagg.Engine.degradation list;
}

(* Carries a structured engine error out of the evaluation loops;
   intercepted in [evaluate], never escapes this module. *)
exception Robust_error of Tempagg.Engine.error

let run_engine ?robust ?shard_offsets (plan : Semant.plan) monoid data =
  let origin, horizon =
    match plan.Semant.window with
    | Some w -> (Interval.start w, Interval.stop w)
    | None -> (Chronon.origin, Chronon.forever)
  in
  match robust with
  | None -> (
      match plan.Semant.granule with
      | Some granule ->
          Tempagg.Span.eval ~origin ~horizon ~algorithm:plan.Semant.algorithm
            ~granule monoid data
      | None ->
          Tempagg.Engine.eval ~origin ~horizon ?shard_offsets
            plan.Semant.algorithm monoid data)
  | Some ctx -> (
      let result =
        match plan.Semant.granule with
        | Some granule ->
            Tempagg.Span.eval_robust ~origin ~horizon
              ~algorithm:plan.Semant.algorithm ~on_error:plan.Semant.on_error
              ?memory_budget:ctx.memory_budget ?deadline_ms:ctx.deadline_ms
              ~granule monoid data
        | None ->
            Tempagg.Engine.eval_robust ~origin ~horizon
              ~on_error:plan.Semant.on_error
              ?memory_budget:ctx.memory_budget ?deadline_ms:ctx.deadline_ms
              ?shard_offsets plan.Semant.algorithm monoid data
      in
      match result with
      | Ok (timeline, degradations) ->
          ctx.events <- ctx.events @ degradations;
          timeline
      | Error e -> raise (Robust_error e))

let int_value n = Value.Int n

let option_value = function None -> Value.Null | Some v -> v

type value_monoid =
  | Value_monoid : (Value.t, 's, Value.t) Tempagg.Monoid.t -> value_monoid

let monoid_of_spec (spec : Semant.agg_spec) =
  let module M = Tempagg.Monoid in
  match (spec.Semant.fn, spec.Semant.column_ty) with
  | Ast.Count, _ -> Value_monoid (M.map_output int_value M.count)
  | Ast.Sum, Some Value.Tfloat ->
      Value_monoid
        (M.contramap
           (fun v -> Option.value (Value.to_float v) ~default:0.)
           M.sum_float
        |> M.map_output (fun f -> Value.Float f))
  | Ast.Sum, _ ->
      Value_monoid
        (M.contramap (fun v -> Option.value (Value.to_int v) ~default:0)
           M.sum_int
        |> M.map_output int_value)
  | Ast.Avg, _ ->
      Value_monoid
        (M.contramap
           (fun v -> Option.value (Value.to_float v) ~default:0.)
           M.avg_float
        |> M.map_output (function
             | None -> Value.Null
             | Some f -> Value.Float f))
  | Ast.Min, _ ->
      Value_monoid (M.map_output option_value (M.minimum ~compare:Value.compare))
  | Ast.Max, _ ->
      Value_monoid (M.map_output option_value (M.maximum ~compare:Value.compare))

(* Merge per-storage-shard stream sizes into at most [target] evaluation
   shards of roughly equal tuple count, as cut offsets into the
   concatenated stream ([0; ...; total]).  Adjacent storage shards stay
   adjacent, so each evaluation shard still covers a contiguous slice. *)
let group_offsets ~target sizes =
  let total = List.fold_left ( + ) 0 sizes in
  let per = Stdlib.max 1 ((total + Stdlib.max 1 target - 1) / Stdlib.max 1 target) in
  let cuts = ref [] in
  let pos = ref 0 in
  let last = ref 0 in
  List.iter
    (fun s ->
      pos := !pos + s;
      if !pos - !last >= per && !pos < total then begin
        cuts := !pos :: !cuts;
        last := !pos
      end)
    sizes;
  Array.of_list ((0 :: List.rev !cuts) @ [ total ])

(* How many of each storage slice's tuples [spec] consumes; [ends.(i)]
   is one past slice [i]'s last tuple in [tuples]. *)
let consumed_per_slice ends tuples spec =
  List.init (Array.length ends) (fun s ->
      let n = ref 0 in
      for j = (if s = 0 then 0 else ends.(s - 1)) to ends.(s) - 1 do
        if consumes spec tuples.(j) then incr n
      done;
      !n)

let agg_timeline ?robust ?slice_ends plan tuples (spec : Semant.agg_spec) =
  (* A partitioned plan under a Parallel algorithm evaluates each
     storage shard's slice in its own evaluation shard: the per-shard
     streams (after this aggregate's NULL filtering) give the explicit
     offsets [Engine.eval] pins the parallel split to.  DISTINCT
     re-sorts by value and span grouping goes through [Span.eval], so
     both keep the unpinned path. *)
  let shard_offsets =
    match (slice_ends, plan.Semant.algorithm, plan.Semant.granule) with
    | Some ends, Tempagg.Engine.Parallel { domains; _ }, None
      when not spec.Semant.distinct ->
        Some
          (group_offsets ~target:domains (consumed_per_slice ends tuples spec))
    | _ -> None
  in
  let data = Array.to_seq (data_for tuples spec) in
  let data =
    (* Duplicate elimination happens before the relation is processed
       (paper Section 7); the prepared stream is value-ordered. *)
    if spec.Semant.distinct then
      List.to_seq (Tempagg.Distinct.prepare ~compare:Value.compare data)
    else data
  in
  (* The value-ordered distinct stream is no longer k-ordered, even
     inside a parallel shard (contiguous sharding preserves input order,
     but the distinct preparation re-sorts by value first). *)
  let rec needs_time_order = function
    | Tempagg.Engine.Korder_tree _ -> true
    | Tempagg.Engine.Parallel { inner; _ } -> needs_time_order inner
    | _ -> false
  in
  let rec without_korder = function
    | Tempagg.Engine.Korder_tree _ -> Tempagg.Engine.Aggregation_tree
    | Tempagg.Engine.Parallel { domains; inner } ->
        Tempagg.Engine.Parallel { domains; inner = without_korder inner }
    | a -> a
  in
  let plan =
    if spec.Semant.distinct && needs_time_order plan.Semant.algorithm then
      { plan with Semant.algorithm = without_korder plan.Semant.algorithm }
    else plan
  in
  match monoid_of_spec spec with
  | Value_monoid monoid -> run_engine ?robust ?shard_offsets plan monoid data

(* Pair up the per-aggregate timelines into one timeline of value lists.
   All of them cover the full [origin,horizon], so refine never fails. *)
let zip_timelines = function
  | [] -> assert false
  | first :: rest ->
      List.fold_left
        (fun acc tl -> Timeline.map (fun (l, v) -> l @ [ v ]) (Timeline.refine acc tl))
        (Timeline.map (fun v -> [ v ]) first)
        rest

(* Restrict a timeline to the segments intersecting [hull], trimming the
   first and last. *)
let clip_to hull tl =
  let segments =
    List.filter_map
      (fun (ivl, v) ->
        Option.map (fun i -> (i, v)) (Interval.intersect ivl hull))
      (Timeline.to_list tl)
  in
  match segments with [] -> None | _ -> Some (Timeline.of_list segments)

(* Visit the kept slices of [relation]'s one tuple array — all of it
   when unpartitioned, else each shard whose span meets the window, by
   index — and push every tuple that passes [keep], clipped to the
   window, into one array in physical order.  Pruned shards are never
   touched.  Also returns where each kept slice ends in that array.
   Runs as a "scan" span carrying the slices visited and the tuples
   kept. *)
let scan ~keep ~window ~(layout : Semant.shard list) relation =
  Obs.Trace.with_span "scan" @@ fun () ->
  let slices =
    match layout with
    | [] -> [ (0, Trel.cardinality relation) ]
    | layout ->
        List.filter_map
          (fun (s : Semant.shard) ->
            match window with
            | Some w when not (Interval.overlaps s.Semant.span w) -> None
            | _ -> Some (s.Semant.first, s.Semant.count))
          layout
  in
  let out =
    (* Without a window every kept tuple that passes [keep] is pushed,
       so the kept slices' total is the likely length; a window keeps
       an unknown, often small, share. *)
    match window with
    | None ->
        buffer ~capacity:(List.fold_left (fun n (_, c) -> n + c) 0 slices) ()
    | Some _ -> buffer ()
  in
  let ends = Array.make (List.length slices) 0 in
  List.iteri
    (fun k (first, count) ->
      for i = first to first + count - 1 do
        let t = Trel.get relation i in
        if keep t then
          match window with
          | None -> push out t
          | Some w -> (
              match Interval.intersect (Tuple.valid t) w with
              | Some clipped -> push out (Tuple.with_valid t clipped)
              | None -> ())
      done;
      ends.(k) <- out.length)
    slices;
  if Obs.Trace.recording () then
    Obs.Trace.annotate
      [
        ("shards", string_of_int (List.length slices));
        ("tuples", string_of_int out.length);
      ];
  (contents out, ends)

(* One join side: its kept slices, clipped to the window.  No WHERE
   filtering here — a join query's WHERE is compiled against the
   combined schema and runs on the joined stream. *)
let side_tuples ~window ~layout relation =
  fst (scan ~keep:(fun _ -> true) ~window ~layout relation)

(* Execute the plan's interval join: materialize both sides (each
   pruned by its own shard layout and clipped to the window), pair
   them under the ON predicate with the planned strategy, and build
   the joined tuples — left values then right values, valid time from
   {!Join.Predicate.result_interval}.

   The robust path runs the join under one Guard spanning both
   attempts (a retry does not restart the deadline clock, matching
   [Engine.eval_robust]); the sweep's active-map slots are metered
   through an Instrument, so a sweep that blows the memory budget
   retries as the nested loop — which keeps no per-tuple state — when
   the recovery policy allows, recorded as a degradation and counted
   by {!Join.Telemetry}.  Returns the joined tuples and the strategy
   that actually ran. *)
let joined_tuples ?robust (plan : Semant.plan) (j : Semant.join_spec) =
  let left =
    side_tuples ~window:plan.Semant.window ~layout:plan.Semant.shard_layout
      plan.Semant.relation
  and right =
    side_tuples ~window:plan.Semant.window ~layout:j.Semant.right_shard_layout
      j.Semant.right_relation
  in
  let livs = Array.map Tuple.valid left
  and rivs = Array.map Tuple.valid right in
  let pairs = ref (buffer ()) in
  let execute ?guard ?instrument strategy =
    pairs := buffer ();
    Join.Engine.run ?guard ?instrument strategy j.Semant.predicate ~left:livs
      ~right:rivs (fun l r -> push !pairs (l, r))
  in
  let span_label s = "join:" ^ Join.Engine.strategy_to_string s in
  let used =
    match robust with
    | None ->
        Obs.Trace.with_span (span_label j.Semant.strategy) (fun () ->
            execute j.Semant.strategy);
        j.Semant.strategy
    | Some ctx -> (
        let guard =
          Tempagg.Guard.create ?memory_budget:ctx.memory_budget
            ?deadline_ms:ctx.deadline_ms ()
        in
        let attempt strategy =
          let instrument = Tempagg.Instrument.create () in
          Tempagg.Guard.attach guard instrument;
          Obs.Trace.with_span (span_label strategy) (fun () ->
              execute ~guard ~instrument strategy)
        in
        try
          attempt j.Semant.strategy;
          j.Semant.strategy
        with
        | Tempagg.Guard.Deadline_exceeded { deadline_ms; elapsed_ms } ->
            raise
              (Robust_error
                 (Tempagg.Engine.Deadline_exhausted { deadline_ms; elapsed_ms }))
        | Tempagg.Guard.Budget_exceeded { budget_bytes; used_bytes } as e -> (
            match (plan.Semant.on_error, j.Semant.strategy) with
            | (Tempagg.Engine.Fallback | Tempagg.Engine.Skip), Join.Engine.Sweep
              -> (
                let d =
                  {
                    Tempagg.Engine.stage = span_label Join.Engine.Sweep;
                    reason =
                      Option.value (Tempagg.Guard.describe e)
                        ~default:"memory budget exceeded";
                    action = "retried as nested-loop-join (no live state)";
                  }
                in
                ctx.events <- ctx.events @ [ d ];
                Join.Telemetry.record_fallback ();
                (* Same guard: the deadline keeps counting across the
                   retry; the nested loop allocates nothing, so the
                   budget cannot trip again. *)
                try
                  Obs.Trace.with_span (span_label Join.Engine.Nested_loop)
                    (fun () -> execute ~guard Join.Engine.Nested_loop);
                  Join.Engine.Nested_loop
                with
                | Tempagg.Guard.Deadline_exceeded { deadline_ms; elapsed_ms }
                  ->
                    raise
                      (Robust_error
                         (Tempagg.Engine.Deadline_exhausted
                            { deadline_ms; elapsed_ms })))
            | _ ->
                raise
                  (Robust_error
                     (Tempagg.Engine.Budget_exhausted
                        { budget_bytes; used_bytes }))))
  in
  Join.Telemetry.record ~strategy:used ~pairs:!pairs.length;
  ( Array.map
      (fun (l, r) ->
        Tuple.make
          (Array.append (Tuple.values left.(l)) (Tuple.values right.(r)))
          (Join.Predicate.result_interval j.Semant.predicate livs.(l) rivs.(r)))
      (contents !pairs),
    used )

let partitions (plan : Semant.plan) tuples =
  match plan.Semant.group_columns with
  | [] -> [ ([], tuples) ]
  | cols ->
      let groups = Hashtbl.create 16 in
      let order = ref [] in
      Array.iter
        (fun t ->
          let key = List.map (fun (_, i) -> Tuple.value t i) cols in
          match Hashtbl.find_opt groups key with
          | None ->
              order := key :: !order;
              let group = buffer () in
              push group t;
              Hashtbl.add groups key group
          | Some group -> push group t)
        tuples;
      List.sort
        (fun (a, _) (b, _) -> List.compare Value.compare a b)
        (List.map (fun key -> (key, contents (Hashtbl.find groups key))) !order)

let run_aux ?robust (plan : Semant.plan) =
  let tuples, slice_ends, join_used =
    match plan.Semant.join with
    | Some j ->
        (* The joined stream is already windowed per side; WHERE runs
           on the combined tuples. *)
        let joined, used = joined_tuples ?robust plan j in
        ( Array.of_seq (Seq.filter plan.Semant.filter (Array.to_seq joined)),
          None,
          Some used )
    | None ->
        let tuples, ends =
          scan ~keep:plan.Semant.filter ~window:plan.Semant.window
            ~layout:plan.Semant.shard_layout plan.Semant.relation
        in
        (tuples, (if plan.Semant.shard_layout = [] then None else Some ends), None)
  in
  if plan.Semant.sort_first then Array.stable_sort Tuple.compare_by_time tuples;
  (* Storage slices stay usable as evaluation-shard boundaries only while
     the physical order is untouched: a pre-sort reorders across slices,
     and grouping partitions the tuples by value. *)
  let slice_ends =
    if plan.Semant.group_columns = [] && not plan.Semant.sort_first then
      slice_ends
    else None
  in
  let grouped = plan.Semant.group_columns <> [] in
  let rows =
    List.concat_map
      (fun (key, group_tuples) ->
        let timelines =
          List.map (agg_timeline ?robust ?slice_ends plan group_tuples)
            plan.Semant.aggregates
        in
        let zipped =
          Timeline.coalesce
            ~equal:(List.equal Value.equal)
            (zip_timelines timelines)
        in
        let clipped =
          if grouped then
            let hull =
              Array.fold_left
                (fun acc t ->
                  match acc with
                  | None -> Some (Tuple.valid t)
                  | Some h -> Some (Interval.hull h (Tuple.valid t)))
                None group_tuples
            in
            match hull with
            | None -> None
            | Some h -> clip_to h zipped
          else Some zipped
        in
        match clipped with
        | None -> []
        | Some tl ->
            List.map
              (fun (ivl, values) ->
                Tuple.make (Array.of_list (key @ values)) ivl)
              (Timeline.to_list tl))
      (partitions plan tuples)
  in
  (Trel.create plan.Semant.out_schema rows, join_used)

let ( let* ) = Result.bind

let ms_since t0_us = float_of_int (Obs.Trace.now_us () - t0_us) /. 1000.

(* Command-line overrides: --algorithm replaces the planned algorithm
   outright; --domains N (N > 1) wraps whatever was chosen in a parallel
   divide-and-conquer over N OCaml domains; --on-error replaces the
   recovery policy; --join-strategy pins the interval-join strategy
   (ignored for join-free queries). *)
let apply_overrides ?algorithm ?domains ?on_error ?join_strategy plan =
  let plan =
    match on_error with
    | None -> plan
    | Some p -> { plan with Semant.on_error = p }
  in
  let plan =
    match (join_strategy, plan.Semant.join) with
    | Some s, Some j ->
        {
          plan with
          Semant.join =
            Some
              {
                j with
                Semant.strategy = s;
                join_rationale =
                  Printf.sprintf "--join-strategy override: %s"
                    (Join.Engine.strategy_to_string s);
                join_stats_source = "--join-strategy override";
              };
        }
    | _ -> plan
  in
  let plan =
    match algorithm with
    | None -> plan
    | Some a ->
        {
          plan with
          Semant.algorithm = a;
          rationale =
            Printf.sprintf "--algorithm override: %s" (Tempagg.Engine.name a);
          stats_source = "--algorithm override";
        }
  in
  match domains with
  | Some d when d > 1 ->
      {
        plan with
        Semant.algorithm =
          Tempagg.Engine.Parallel { domains = d; inner = plan.Semant.algorithm };
        rationale =
          plan.Semant.rationale
          ^ Printf.sprintf "; sharded across %d domains (--domains)" d;
      }
  | _ -> plan

let plan ?(adaptive = true) ?algorithm ?domains ?on_error ?join_strategy
    catalog ast =
  Obs.Trace.with_span "plan" @@ fun () ->
  let* planned = Semant.analyze ~adaptive catalog ast in
  let planned =
    apply_overrides ?algorithm ?domains ?on_error ?join_strategy planned
  in
  (* The choice and the strings the plan already holds for it, so a
     trace says why this plan ran. *)
  if Obs.Trace.recording () then
    Obs.Trace.annotate
      (("algorithm", Tempagg.Engine.name planned.Semant.algorithm)
       :: ("rationale", planned.Semant.rationale)
       :: ("stats", planned.Semant.stats_source)
       ::
       (match planned.Semant.join with
       | None -> []
       | Some j ->
           [
             ("join", Join.Engine.strategy_to_string j.Semant.strategy);
             ("join_rationale", j.Semant.join_rationale);
             ("join_stats", j.Semant.join_stats_source);
           ]));
  Ok planned

(* Harvest one outcome record into the statistics store after a
   successful run: what ran, how long it took, and — only when the plan
   was a plain scan of the relation — what the run proved about the
   relation itself.  A k-ordered tree completing without an order
   violation proves the evaluated stream k-ordered; that transfers to
   the relation only when the stream was the relation (bare tree, not a
   parallel shard whose per-shard success says nothing globally) and
   every aggregate consumed every tuple (a column aggregate skips SQL
   NULLs, and a subsequence can be *worse*-ordered than its source). *)
let record_outcome catalog (plan : Semant.plan) ~elapsed_ms ~degradations
    result =
  let bare_korder = function
    | Tempagg.Engine.Korder_tree { k } -> Some k
    | _ -> None
  in
  let full_streams =
    List.for_all
      (fun (s : Semant.agg_spec) -> s.Semant.column = None)
      plan.Semant.aggregates
  in
  let k_observed =
    if plan.Semant.plain_scan && degradations = 0 && full_streams then
      bare_korder plan.Semant.algorithm
    else None
  in
  let segments =
    if plan.Semant.plain_scan then Some (Trel.cardinality result) else None
  in
  Obs.Stats.record
    (Catalog.stats catalog plan.Semant.source_name)
    {
      Obs.Stats.cardinality = Trel.cardinality plan.Semant.relation;
      algorithm = Tempagg.Engine.name plan.Semant.algorithm;
      elapsed_ms;
      k_observed;
      segments;
      degradations;
    }

type report = {
  result : Trel.t;
  degradations : Tempagg.Engine.degradation list;
  join : Join.Engine.strategy option;
}

(* Evaluate [plan] on the one engine path both [execute] and [run] take:
   a FAIL plan with nothing to enforce runs on [Engine.eval]; a budget,
   a deadline or a recovery policy sends every evaluation through
   [Engine.eval_robust], which walks that policy. *)
let evaluate ?memory_budget ?deadline_ms (plan : Semant.plan) =
  let robust =
    match (memory_budget, deadline_ms, plan.Semant.on_error) with
    | None, None, Tempagg.Engine.Fail -> None
    | _ -> Some { memory_budget; deadline_ms; events = [] }
  in
  let failed e =
    Error ("evaluation failed: " ^ Tempagg.Engine.error_to_string e)
  in
  match run_aux ?robust plan with
  | result, join ->
      let degradations = match robust with Some c -> c.events | None -> [] in
      Ok { result; degradations; join }
  | exception Robust_error e -> failed e
  | exception Tempagg.Korder_tree.Order_violation { position; _ } ->
      failed (Tempagg.Engine.Not_k_ordered { position })
  | exception Invalid_argument msg -> failed (Tempagg.Engine.Eval_failed msg)

let run plan =
  match evaluate plan with Ok r -> r.result | Error msg -> failwith msg

let execute ?memory_budget ?deadline_ms catalog (plan : Semant.plan) =
  let t0_us = Obs.Trace.now_us () in
  let* report = evaluate ?memory_budget ?deadline_ms plan in
  record_outcome catalog plan ~elapsed_ms:(ms_since t0_us)
    ~degradations:(List.length report.degradations) report.result;
  Ok report

(* Parse a query's text and plan it: the front half of [query] and
   [explain]. *)
let plan_text ?adaptive ?algorithm ?domains ?on_error ?join_strategy catalog
    text =
  let* ast = Parser.parse text in
  plan ?adaptive ?algorithm ?domains ?on_error ?join_strategy catalog ast

let query ?adaptive ?algorithm ?domains ?join_strategy catalog text =
  let* plan = plan_text ?adaptive ?algorithm ?domains ?join_strategy catalog text in
  let* report = execute catalog plan in
  Ok report.result

let describe (plan : Semant.plan) =
  let join_scan =
    match plan.Semant.join with
    | None -> ""
    | Some j ->
        Printf.sprintf "; %s %s (%d tuples)%s on vt %s vt"
          (Join.Engine.strategy_to_string j.Semant.strategy)
          j.Semant.right_name
          (Trel.cardinality j.Semant.right_relation)
          (match j.Semant.right_shard_layout with
          | [] -> ""
          | layout ->
              Printf.sprintf " [%d shard(s): %d scanned, %d pruned]"
                (List.length layout) j.Semant.right_scanned
                j.Semant.right_pruned)
          (Join.Predicate.to_string j.Semant.predicate)
  in
  let join_why =
    match plan.Semant.join with
    | None -> ""
    | Some j ->
        Printf.sprintf "\n  join why: %s\n  join stats: %s"
          j.Semant.join_rationale j.Semant.join_stats_source
  in
  let grouping =
    match plan.Semant.granule with
    | None -> "by instant"
    | Some g ->
        Printf.sprintf "by span of %d instants"
          (g : Granule.t).Granule.length
  in
  Printf.sprintf
    "scan %s (%d tuples)%s%s%s; aggregate %s grouped %s%s using %s%s\n\
    \  why: %s"
    plan.Semant.source_name
    (Trel.cardinality plan.Semant.relation)
    ((match plan.Semant.window with
     | Some w -> Printf.sprintf " during %s" (Interval.to_string w)
     | None -> "")
    ^
    match plan.Semant.shard_layout with
    | [] -> ""
    | layout ->
        Printf.sprintf " [%d shard(s): %d scanned, %d pruned]"
          (List.length layout) plan.Semant.scanned_shards
          plan.Semant.pruned_shards)
    join_scan
    (if plan.Semant.sort_first then ", sort by time" else "")
    (String.concat ", "
       (List.map
          (fun (s : Semant.agg_spec) -> s.Semant.out_name)
          plan.Semant.aggregates))
    grouping
    (match plan.Semant.group_columns with
    | [] -> ""
    | cols ->
        Printf.sprintf " and by (%s)" (String.concat ", " (List.map fst cols)))
    (Tempagg.Engine.name plan.Semant.algorithm)
    (match plan.Semant.on_error with
    | Tempagg.Engine.Fail -> ""
    | p ->
        Printf.sprintf " (on error: %s)" (Tempagg.Engine.on_error_to_string p))
    plan.Semant.rationale
  ^ join_why
  ^ Printf.sprintf "\n  stats: %s" plan.Semant.stats_source

let explain ?adaptive ?algorithm ?domains ?on_error ?join_strategy catalog
    text =
  let* plan =
    plan_text ?adaptive ?algorithm ?domains ?on_error ?join_strategy catalog text
  in
  Ok (describe plan)

(* Trace ids for profiled statements that no request encloses. *)
let analyses = Atomic.make 0

let analyze run =
  (* The statement's own span, and the trace to find its descendants
     under once it has closed. *)
  let root = ref None in
  let trace =
    match Obs.Trace.current () with
    | Some _ -> None
    | None -> Some (Printf.sprintf "analyze-%d" (Atomic.fetch_and_add analyses 1))
  in
  (* A run that records more spans on this domain than its ring holds
     overwrites its own earliest ones; the report then says how many. *)
  let recorded_before = Obs.Trace.recorded_here () in
  let* plan, report =
    Obs.Trace.with_span ?trace "explain-analyze" (fun () ->
        root :=
          Option.map
            (fun id -> (id, Obs.Trace.current_trace ()))
            (Obs.Trace.current ());
        run ())
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%s\n" (describe plan);
  let total =
    match !root with
    | None -> None
    | Some (id, trace) -> (
        let spans = Obs.Trace.recorded ~trace () in
        match List.find_opt (fun (s : Obs.Trace.span) -> s.id = id) spans with
        | None -> None
        | Some s ->
            Printf.bprintf buf "spans:\n%s"
              (Obs.Trace.tree_to_string ~root:id spans);
            Some (s.stop_us - s.start_us))
  in
  if total = None then Buffer.add_string buf "spans: none recorded\n";
  let dropped =
    Obs.Trace.recorded_here () - recorded_before
    - Obs.Trace.ring_capacity_now ()
  in
  if dropped > 0 then
    Printf.bprintf buf "spans: %d dropped (ring full)\n" dropped;
  if report.degradations <> [] then begin
    Buffer.add_string buf "degradations:\n";
    List.iter
      (fun d ->
        Printf.bprintf buf "  - %s\n" (Tempagg.Engine.degradation_to_string d))
      report.degradations
  end;
  Printf.bprintf buf "output: %d segment(s)\n" (Trel.cardinality report.result);
  Option.iter
    (fun us -> Printf.bprintf buf "total: %.3f ms\n" (float_of_int us /. 1000.))
    total;
  Ok (report, Buffer.contents buf)
