open Relation

type agg_spec = {
  fn : Ast.agg_fun;
  column : int option;
  column_ty : Value.ty option;
  distinct : bool;
  out_name : string;
  out_ty : Value.ty;
}

type shard = { span : Temporal.Interval.t; first : int; count : int }

type join_spec = {
  right_relation : Trel.t;
  right_name : string;
  predicate : Join.Predicate.t;
  strategy : Join.Engine.strategy;
  join_rationale : string;
  join_stats_source : string;
  right_shard_layout : shard list;
      (* The right side's storage shards, for pruning its input scan
         against the window; [] = unpartitioned. *)
  right_scanned : int;
  right_pruned : int;
}

type plan = {
  relation : Trel.t;
  source_name : string;
  join : join_spec option;
      (* When present, the evaluated stream is the interval join of
         [relation] and [right_relation]: both sides clipped to the
         window (each skipping shards the window misses), paired by
         [predicate] under [strategy], each pair's valid time from
         [Join.Predicate.result_interval].  The rest of the plan
         (filter, grouping, aggregation) runs over that joined
         stream. *)
  filter : Tuple.t -> bool;
  group_columns : (string * int) list;
  aggregates : agg_spec list;
  algorithm : Tempagg.Engine.algorithm;
  sort_first : bool;
  on_error : Tempagg.Engine.on_error;
  granule : Temporal.Granule.t option;
  window : Temporal.Interval.t option;
  out_schema : Schema.t;
  rationale : string;
  stats_source : string;
      (* Where the plan's decisive inputs came from (declared metadata,
         observed statistics, or an explicit USING hint). *)
  plain_scan : bool;
      (* The evaluated stream is the relation in its physical order:
         no filter, no clipping, no grouping, no DISTINCT re-sort, no
         granule, no pre-sort.  Only then do run-time ordering
         observations (a k-ordered tree completing cleanly) say
         anything about the relation itself. *)
  shard_layout : shard list;
      (* The relation's storage-shard layout ([] = unpartitioned): time
         span and slice of the tuple array per shard, in materialization
         order.  Lets the evaluator visit only the shards that meet the
         DURING window and pin parallel evaluation shards to storage
         shards. *)
  scanned_shards : int;  (* shards overlapping the window; 0 unsharded *)
  pruned_shards : int;  (* shards skipped outright; 0 unsharded *)
}

let ( let* ) = Result.bind

(* SQL column references are case-insensitive; exact matches win, then a
   unique case-folded match is accepted.  Join schemas qualify columns
   as <relation>.<column>; an unqualified reference resolves against
   the part after the dot, and must be unique across both sides. *)
let resolve_column schema name =
  match Schema.index_of schema name with
  | Some i -> Ok (i, (Schema.column schema i).Schema.ty)
  | None -> (
      let folded = String.lowercase_ascii name in
      let unqualified = not (String.contains name '.') in
      let matches c =
        let cn = String.lowercase_ascii c.Schema.name in
        cn = folded
        || unqualified
           &&
           match String.index_opt cn '.' with
           | Some k ->
               String.sub cn (k + 1) (String.length cn - k - 1) = folded
           | None -> false
      in
      let candidates = List.filter matches (Schema.columns schema) in
      match candidates with
      | [ c ] ->
          let i = Option.get (Schema.index_of schema c.Schema.name) in
          Ok (i, c.Schema.ty)
      | [] -> Error (Printf.sprintf "unknown column %S" name)
      | cs ->
          Error
            (Printf.sprintf "ambiguous column %S (matches %s)" name
               (String.concat ", "
                  (List.map (fun c -> c.Schema.name) cs))))

let numeric = function Value.Tint | Value.Tfloat -> true | Value.Tstring -> false

let analyze_aggregate schema item =
  match item with
  | Ast.Column _ | Ast.Star -> assert false
  | Ast.Aggregate { fn; arg; distinct } -> (
      let base_name =
        Printf.sprintf "%s(%s%s)"
          (String.lowercase_ascii (Ast.agg_fun_to_string fn))
          (if distinct then "distinct " else "")
          (Option.value arg ~default:"*")
      in
      match arg with
      | None ->
          if fn = Ast.Count then
            Ok
              {
                fn;
                column = None;
                column_ty = None;
                distinct = false;
                out_name = base_name;
                out_ty = Value.Tint;
              }
          else
            Error
              (Printf.sprintf "%s requires a column argument"
                 (Ast.agg_fun_to_string fn))
      | Some col ->
          let* i, ty = resolve_column schema col in
          let* out_ty =
            match fn with
            | Ast.Count -> Ok Value.Tint
            | Ast.Avg ->
                if numeric ty then Ok Value.Tfloat
                else Error (Printf.sprintf "AVG(%s): column is not numeric" col)
            | Ast.Sum ->
                if numeric ty then Ok ty
                else Error (Printf.sprintf "SUM(%s): column is not numeric" col)
            | Ast.Min | Ast.Max -> Ok ty
          in
          Ok { fn; column = Some i; column_ty = Some ty; distinct;
               out_name = base_name; out_ty })

let literal_value ty lit =
  match (ty, lit) with
  | Value.Tint, Ast.Lint n -> Ok (Value.Int n)
  | Value.Tfloat, Ast.Lfloat f -> Ok (Value.Float f)
  | Value.Tfloat, Ast.Lint n -> Ok (Value.Float (float_of_int n))
  | Value.Tstring, Ast.Lstring s -> Ok (Value.Str s)
  | _ ->
      Error
        (Printf.sprintf "literal %s does not match a %s column"
           (Ast.literal_to_string lit)
           (Value.ty_to_string ty))

let compile_predicate schema (p : Ast.predicate) =
  let* i, ty = resolve_column schema p.Ast.column in
  let* rhs = literal_value ty p.Ast.value in
  let test tuple =
    let v = Tuple.value tuple i in
    if Value.is_null v then false (* SQL: comparisons with NULL are unknown *)
    else
      let c = Value.compare v rhs in
      match p.Ast.op with
      | Ast.Eq -> c = 0
      | Ast.Neq -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
  in
  Ok test

let predicate_filter schema preds =
  let rec build = function
    | [] -> Ok []
    | p :: rest ->
        let* test = compile_predicate schema p in
        let* tests = build rest in
        Ok (test :: tests)
  in
  let* tests = build preds in
  Ok (fun tuple -> List.for_all (fun test -> test tuple) tests)

let tuple_of_literals schema literals valid =
  let arity = Schema.arity schema in
  let given = List.length literals in
  if given <> arity then
    Error
      (Printf.sprintf "expected %d value(s) for %s, got %d" arity
         (String.concat ", "
            (List.map (fun c -> c.Schema.name) (Schema.columns schema)))
         given)
  else
    let rec convert i = function
      | [] -> Ok []
      | lit :: rest ->
          let ty = (Schema.column schema i).Schema.ty in
          let* v = literal_value ty lit in
          let* vs = convert (i + 1) rest in
          Ok (v :: vs)
    in
    let* values = convert 0 literals in
    Ok (Tuple.make (Array.of_list values) valid)

let rec collect_results f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = collect_results f rest in
      Ok (y :: ys)

(* Result columns need unique names; repeated aggregates get _2, _3 ... *)
let uniquify names =
  let seen = Hashtbl.create 8 in
  List.map
    (fun name ->
      match Hashtbl.find_opt seen name with
      | None ->
          Hashtbl.add seen name 1;
          name
      | Some n ->
          Hashtbl.replace seen name (n + 1);
          Printf.sprintf "%s_%d" name (n + 1))
    names

(* Whether every selected aggregate maps to an invertible monoid
   (Monoid.invertible): COUNT/SUM/AVG subtract cleanly, MIN/MAX are
   idempotent semilattices and do not.  One algorithm serves the whole
   query, so the delta-sweep fast path needs them all invertible. *)
let all_invertible aggregates =
  List.for_all
    (fun spec ->
      match spec.fn with
      | Ast.Count | Ast.Sum | Ast.Avg -> true
      | Ast.Min | Ast.Max -> false)
    aggregates

let choose_algorithm catalog relation (q : Ast.query) ~cardinality
    ~time_ordered ~invertible ~adaptive ~shard_layout granule window =
  match q.Ast.using with
  | Some hint ->
      let* algorithm = Tempagg.Engine.of_string hint in
      (* An explicit hint fails loudly by default — the user asked for
         this algorithm — unless an ON ERROR clause says otherwise. *)
      let on_error =
        Option.value q.Ast.on_error ~default:Tempagg.Engine.Fail
      in
      Ok
        ( algorithm,
          false,
          on_error,
          Printf.sprintf "USING hint: %s" hint,
          "USING hint" )
  | None ->
      let expected_constant_intervals =
        (* Upper bounds on the result size: the number of spans under
           span grouping, the window width under DURING (Section 6.3's
           "results for a single year" case). *)
        let span_estimate =
          match granule with
          | Some g ->
              Option.bind (Trel.lifespan relation) (fun span ->
                  match Temporal.Interval.duration span with
                  | Some d ->
                      Some
                        ((d / (g : Temporal.Granule.t).Temporal.Granule.length)
                        + 1)
                  | None -> None)
          | None -> None
        in
        let window_estimate =
          Option.bind window Temporal.Interval.duration
        in
        match (span_estimate, window_estimate) with
        | Some a, Some b -> Some (Stdlib.min a b)
        | (Some _ as e), None | None, (Some _ as e) -> e
        | None, None -> None
      in
      let metadata =
        {
          (Tempagg.Optimizer.default_metadata ~cardinality) with
          Tempagg.Optimizer.time_ordered;
          expected_constant_intervals;
          invertible_aggregate = invertible;
          shard_spans = List.map (fun s -> s.span) shard_layout;
          query_window = window;
        }
      in
      let choice =
        if adaptive then
          Tempagg.Optimizer.choose_observed
            (Catalog.stats_summary catalog q.Ast.from)
            metadata
        else Tempagg.Optimizer.choose metadata
      in
      Ok
        ( choice.Tempagg.Optimizer.algorithm,
          choice.Tempagg.Optimizer.sort_first,
          Option.value q.Ast.on_error
            ~default:choice.Tempagg.Optimizer.on_error,
          choice.Tempagg.Optimizer.rationale,
          choice.Tempagg.Optimizer.stats_source )

(* The shard layout is trusted only when it demonstrably describes the
   relation (a stale layout after an unmirrored write would misalign
   shard skipping with the physical tuples). *)
let trusted_layout catalog name relation =
  let total, shards =
    List.fold_left
      (fun (first, acc) (span, count) ->
        (first + count, { span; first; count } :: acc))
      (0, [])
      (Catalog.layout catalog name)
  in
  if total = Trel.cardinality relation then List.rev shards else []

let shard_counts layout window =
  match layout with
  | [] -> (0, 0)
  | layout -> (
      match window with
      | None -> (List.length layout, 0)
      | Some w ->
          let scanned =
            List.length
              (List.filter
                 (fun s -> Temporal.Interval.overlaps s.span w)
                 layout)
          in
          (scanned, List.length layout - scanned))

let analyze ?(adaptive = true) catalog (q : Ast.query) =
  let* relation =
    match Catalog.find catalog q.Ast.from with
    | Some rel -> Ok rel
    | None -> Error (Printf.sprintf "unknown relation %S" q.Ast.from)
  in
  let* right =
    match q.Ast.join with
    | None -> Ok None
    | Some { Ast.jright; _ } -> (
        match Catalog.find catalog jright with
        | Some rel -> Ok (Some (jright, rel))
        | None ->
            Error
              (Printf.sprintf "unknown relation %S (JOIN right side)" jright))
  in
  let schema =
    (* A join's combined schema qualifies every column as
       <relation>.<column>, left columns first; unqualified references
       resolve through [resolve_column]'s suffix match when unique. *)
    match right with
    | None -> Trel.schema relation
    | Some (jright, rrel) ->
        let qualify rel_name s =
          List.map
            (fun c -> (rel_name ^ "." ^ c.Schema.name, c.Schema.ty))
            (Schema.columns s)
        in
        Schema.of_pairs
          (qualify q.Ast.from (Trel.schema relation)
          @ qualify jright (Trel.schema rrel))
  in
  let* group_columns =
    collect_results
      (fun name ->
        let* i, _ = resolve_column schema name in
        Ok (name, i))
      q.Ast.group_by
  in
  let* () =
    if List.mem Ast.Star q.Ast.select then
      Error
        "SELECT * is only supported against a view (whose output columns \
         are fixed by its definition)"
    else Ok ()
  in
  let agg_items, column_items =
    List.partition
      (function Ast.Aggregate _ -> true | Ast.Column _ | Ast.Star -> false)
      q.Ast.select
  in
  let* () =
    if agg_items = [] then
      Error "the select list must contain at least one aggregate"
    else Ok ()
  in
  let* () =
    collect_results
      (function
        | Ast.Column name ->
            if List.mem_assoc name group_columns then Ok ()
            else
              Error
                (Printf.sprintf
                   "column %S must appear in GROUP BY to be selected" name)
        | Ast.Aggregate _ | Ast.Star -> Ok ())
      column_items
    |> Result.map (fun (_ : unit list) -> ())
  in
  let* aggregates = collect_results (analyze_aggregate schema) agg_items in
  let* predicates = collect_results (compile_predicate schema) q.Ast.where in
  let filter tuple = List.for_all (fun p -> p tuple) predicates in
  let granule =
    match q.Ast.grouping with
    | Ast.By_instant -> None
    | Ast.By_span n -> Some (Temporal.Granule.make n)
  in
  let window =
    Option.map
      (fun { Ast.w_start; w_stop } ->
        Temporal.Interval.make
          (Temporal.Chronon.of_int w_start)
          (match w_stop with
          | Some e -> Temporal.Chronon.of_int e
          | None -> Temporal.Chronon.forever))
      q.Ast.during
  in
  let shard_layout = trusted_layout catalog q.Ast.from relation in
  let join =
    match (q.Ast.join, right) with
    | Some { Ast.jpred; _ }, Some (jright, rrel) ->
        let right_shard_layout = trusted_layout catalog jright rrel in
        let right_scanned, right_pruned =
          shard_counts right_shard_layout window
        in
        let left_cardinality = Trel.cardinality relation
        and right_cardinality = Trel.cardinality rrel in
        let choice =
          if adaptive then
            Tempagg.Optimizer.choose_join
              ~left_stats:(Catalog.stats_summary catalog q.Ast.from)
              ~right_stats:(Catalog.stats_summary catalog jright)
              ~left_cardinality ~right_cardinality ()
          else
            Tempagg.Optimizer.choose_join ~left_cardinality
              ~right_cardinality ()
        in
        Some
          {
            right_relation = rrel;
            right_name = jright;
            predicate = jpred;
            strategy =
              (if choice.Tempagg.Optimizer.sweep then Join.Engine.Sweep
               else Join.Engine.Nested_loop);
            join_rationale = choice.Tempagg.Optimizer.join_rationale;
            join_stats_source = choice.Tempagg.Optimizer.join_stats_source;
            right_shard_layout;
            right_scanned;
            right_pruned;
          }
    | _ -> None
  in
  let* algorithm, sort_first, on_error, rationale, stats_source =
    (* The aggregate stage of a join query runs over the joined stream,
       which the base relation's statistics and physical properties do
       not describe: no declared order, no shard alignment, no adaptive
       claims.  The aggregation algorithm is chosen on the stream's
       estimated scale alone. *)
    match join with
    | None ->
        choose_algorithm catalog relation q
          ~cardinality:(Trel.cardinality relation)
          ~time_ordered:(Trel.is_time_ordered relation)
          ~invertible:(all_invertible aggregates)
          ~adaptive ~shard_layout granule window
    | Some j ->
        choose_algorithm catalog relation q
          ~cardinality:
            (Trel.cardinality relation + Trel.cardinality j.right_relation)
          ~time_ordered:false
          ~invertible:(all_invertible aggregates)
          ~adaptive:false ~shard_layout:[] granule window
  in
  let scanned_shards, pruned_shards = shard_counts shard_layout window in
  let plain_scan =
    Option.is_none join && q.Ast.where = [] && q.Ast.group_by = []
    && window = None
    && granule = None && (not sort_first)
    && not (List.exists (fun spec -> spec.distinct) aggregates)
  in
  let group_cols_schema =
    List.map
      (fun (name, i) -> (name, (Schema.column schema i).Schema.ty))
      group_columns
  in
  let agg_cols_schema =
    List.map (fun spec -> (spec.out_name, spec.out_ty)) aggregates
  in
  let names =
    uniquify (List.map fst group_cols_schema @ List.map fst agg_cols_schema)
  in
  let tys = List.map snd group_cols_schema @ List.map snd agg_cols_schema in
  let out_schema = Schema.of_pairs (List.combine names tys) in
  let aggregates =
    (* Propagate uniquified names back into the specs. *)
    let agg_names =
      List.filteri (fun i _ -> i >= List.length group_cols_schema) names
    in
    List.map2 (fun spec name -> { spec with out_name = name }) aggregates
      agg_names
  in
  Ok
    {
      relation;
      source_name = q.Ast.from;
      join;
      filter;
      group_columns;
      aggregates;
      algorithm;
      sort_first;
      on_error;
      granule;
      window;
      out_schema;
      rationale;
      stats_source;
      plain_scan;
      shard_layout;
      scanned_shards;
      pruned_shards;
    }
