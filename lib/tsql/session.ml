open Temporal
open Relation

let ( let* ) = Result.bind
let fold = String.lowercase_ascii

type outcome = Rows of Trel.t | Ack of string

(* A mutable base relation: tuples keyed by a session-assigned id (so a
   DELETE can tell the views exactly which contributions to retire),
   with a cached immutable snapshot for the batch path. *)
type base = {
  bname : string;  (* original spelling *)
  schema : Schema.t;
  ids : (int, Tuple.t) Hashtbl.t;
  mutable next_id : int;
  mutable cached : Trel.t option;
  part : Storage.Partition.t option;
      (* Time-partitioned backing store.  Writes go to both the id table
         (which the incremental views key their handles on) and the
         partition; reads materialize from the partition so the tuple
         order matches the shard layout handed to the planner. *)
}

type agg_view =
  | Agg : {
      spec : Semant.agg_spec;
      view : (Value.t, 's, Value.t) Live.View.t;
    }
      -> agg_view

type incremental = {
  aggs : agg_view list;
  inc_filter : Tuple.t -> bool;
  inc_window : Interval.t option;
  handles : (int, Live.View.handle option list) Hashtbl.t;
      (* base tuple id -> per-aggregate view handles (None where the
         tuple was skipped, e.g. a NULL in that aggregate's column) *)
}

type strategy =
  | Incremental of incremental
  | Recompute of { mutable rel : Trel.t; mutable stale : bool }

type view = {
  vname : string;
  source : string;  (* case-folded base-relation name *)
  definition : Ast.query;
  out_schema : Schema.t;
  mutable strategy : strategy;
  mutable vversion : int;
}

type t = {
  bases : (string, base) Hashtbl.t;
  views : (string, view) Hashtbl.t;
  cache : Trel.t Live.Cache.t;
  stats : Live.Stats.t;
  store : Obs.Stats.store;
      (* Per-relation statistics, inherited from the source catalog so
         observations made before the session carry over; every catalog
         the session materializes is attached to this same store. *)
  adaptive : bool;
  mutable data_dir : string option;
      (* Where CREATE TABLE places partition directories; a temp dir is
         made on first use when none was given. *)
  split_threshold : int option;  (* Partition shard-split threshold. *)
  mutable last_join : string option;
      (* Join strategy chosen by the most recent statement's plan, with
         a marker appended when the evaluation fell back to a
         nested-loop retry — what the slow-query log records. *)
  mutable last_degradations : int;
      (* Degradations reported by the most recent statement — how the
         network server learns a guarded SELECT survived by falling
         back rather than completing cleanly. *)
  mutable slo_provider : (unit -> string) option;  (* SHOW SLO body *)
}

let materialize base =
  match base.cached with
  | Some rel -> rel
  | None ->
      let rel =
        match base.part with
        | Some p -> Storage.Partition.materialize p
        | None ->
            let rows =
              Hashtbl.fold (fun id tu acc -> (id, tu) :: acc) base.ids []
            in
            let rows =
              List.sort (fun (a, _) (b, _) -> Int.compare a b) rows
            in
            Trel.create base.schema (List.map snd rows)
      in
      base.cached <- Some rel;
      rel

let catalog t =
  Hashtbl.fold
    (fun _ base acc ->
      let acc = Catalog.add acc base.bname (materialize base) in
      match base.part with
      | Some p ->
          Catalog.with_layout acc base.bname (Storage.Partition.shard_layout p)
      | None -> acc)
    t.bases (Catalog.of_store t.store)

let add_base ?part t name rel =
  let ids = Hashtbl.create (max 16 (Trel.cardinality rel)) in
  List.iteri (fun i tu -> Hashtbl.replace ids i tu) (Trel.tuples rel);
  Hashtbl.replace t.bases (fold name)
    {
      bname = name;
      schema = Trel.schema rel;
      ids;
      next_id = Trel.cardinality rel;
      cached = Some rel;
      part;
    }

let create ?(cache_capacity = 128) ?(adaptive = true) ?data_dir
    ?split_threshold source =
  let stats = Live.Stats.create () in
  let t =
    {
      bases = Hashtbl.create 8;
      views = Hashtbl.create 8;
      cache = Live.Cache.create ~capacity:cache_capacity stats;
      stats;
      store = Catalog.store source;
      adaptive;
      data_dir;
      split_threshold;
      last_join = None;
      last_degradations = 0;
      slo_provider = None;
    }
  in
  List.iter
    (fun name -> add_base t name (Option.get (Catalog.find source name)))
    (Catalog.names source);
  t

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ensure_data_dir t =
  match t.data_dir with
  | Some dir ->
      mkdir_p dir;
      dir
  | None ->
      let dir = Filename.temp_dir "tempagg-session" "" in
      t.data_dir <- Some dir;
      dir

let add_partition t name p =
  add_base ~part:p t name (Storage.Partition.materialize p)

let partitions t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold
       (fun _ b acc ->
         match b.part with Some p -> (b.bname, p) :: acc | None -> acc)
       t.bases [])

let stats t = t.stats
let cache_length t = Live.Cache.length t.cache
let store t = t.store

let relation t name =
  Option.map materialize (Hashtbl.find_opt t.bases (fold name))

let base_names t =
  List.sort String.compare
    (Hashtbl.fold (fun _ b acc -> b.bname :: acc) t.bases [])

let view_names t =
  List.sort String.compare
    (Hashtbl.fold (fun _ v acc -> v.vname :: acc) t.views [])

let view_version t name =
  Option.map (fun v -> v.vversion) (Hashtbl.find_opt t.views (fold name))

let view_strategy t name =
  Option.map
    (fun v ->
      match v.strategy with
      | Incremental _ -> "incremental"
      | Recompute _ -> "recompute")
    (Hashtbl.find_opt t.views (fold name))

(* ---- incremental maintenance ---- *)

let value_for (spec : Semant.agg_spec) tuple =
  match spec.Semant.column with
  | None -> Some Value.Null (* COUNT( * ) consumes every tuple *)
  | Some i ->
      let v = Tuple.value tuple i in
      if Value.is_null v then None else Some v

let clipped_interval incr tuple =
  match incr.inc_window with
  | None -> Some (Tuple.valid tuple)
  | Some w -> Interval.intersect (Tuple.valid tuple) w

let insert_tuple incr id tuple =
  if incr.inc_filter tuple then
    match clipped_interval incr tuple with
    | None -> ()
    | Some iv ->
        let hs =
          List.map
            (function
              | Agg { spec; view } ->
                  Option.map
                    (fun v -> Live.View.insert view iv v)
                    (value_for spec tuple))
            incr.aggs
        in
        Hashtbl.replace incr.handles id hs

let delete_tuple incr id =
  match Hashtbl.find_opt incr.handles id with
  | None -> ()
  | Some hs ->
      Hashtbl.remove incr.handles id;
      List.iter2
        (fun agg h ->
          match agg with
          | Agg { view; _ } ->
              Option.iter (fun h -> ignore (Live.View.delete view h)) h)
        incr.aggs hs

(* Seed the views with the base's current tuples: one bulk [View.load]
   (a single batch sweep) per aggregate, not one patch per tuple. *)
let load_incremental incr base =
  let rows = Hashtbl.fold (fun id tu acc -> (id, tu) :: acc) base.ids [] in
  let rows = List.sort (fun (a, _) (b, _) -> Int.compare a b) rows in
  let eligible =
    List.filter_map
      (fun (id, tu) ->
        if incr.inc_filter tu then
          Option.map (fun iv -> (id, tu, iv)) (clipped_interval incr tu)
        else None)
      rows
  in
  let per_agg =
    List.map
      (function
        | Agg { spec; view } ->
            let entries =
              List.filter_map
                (fun (id, tu, iv) ->
                  Option.map (fun v -> (id, (iv, v))) (value_for spec tu))
                eligible
            in
            let handles =
              Live.View.load view (List.to_seq (List.map snd entries))
            in
            let tbl = Hashtbl.create (max 16 (List.length entries)) in
            List.iter2 (fun (id, _) h -> Hashtbl.replace tbl id h) entries
              handles;
            tbl)
      incr.aggs
  in
  List.iter
    (fun (id, _, _) ->
      Hashtbl.replace incr.handles id
        (List.map (fun tbl -> Hashtbl.find_opt tbl id) per_agg))
    eligible

let build_incremental t (plan : Semant.plan) base =
  let origin, horizon =
    match plan.Semant.window with
    | Some w -> (Interval.start w, Interval.stop w)
    | None -> (Chronon.origin, Chronon.forever)
  in
  let aggs =
    List.map
      (fun spec ->
        match Eval.monoid_of_spec spec with
        | Eval.Value_monoid m ->
            Agg
              { spec; view = Live.View.create ~origin ~horizon ~stats:t.stats m })
      plan.Semant.aggregates
  in
  let incr =
    {
      aggs;
      inc_filter = plan.Semant.filter;
      inc_window = plan.Semant.window;
      handles = Hashtbl.create 64;
    }
  in
  load_incremental incr base;
  incr

(* Every write to [source] funnels through here: incremental views apply
   the delta, recompute views go stale, and either way the view version
   advances so cache entries are traceable to a maintenance state. *)
let touch_views t source apply =
  Hashtbl.iter
    (fun _ v ->
      if String.equal v.source source then begin
        (match v.strategy with
        | Incremental incr -> apply incr
        | Recompute r -> r.stale <- true);
        v.vversion <- v.vversion + 1
      end)
    t.views

(* ---- statement execution ---- *)

let interval_of_window { Ast.w_start; w_stop } =
  Interval.make (Chronon.of_int w_start)
    (match w_stop with Some e -> Chronon.of_int e | None -> Chronon.forever)

let incremental_capable (q : Ast.query) (plan : Semant.plan) =
  q.Ast.group_by = []
  && plan.Semant.granule = None
  && List.for_all (fun s -> not s.Semant.distinct) plan.Semant.aggregates

let create_view t name definition =
  let key = fold name in
  if Hashtbl.mem t.bases key then
    Error (Printf.sprintf "%S is a base relation" name)
  else if Hashtbl.mem t.views (fold definition.Ast.from) then
    Error "views cannot be defined over views"
  else
    let cat = catalog t in
    let* plan = Eval.plan ~adaptive:t.adaptive cat definition in
    let source = fold definition.Ast.from in
    let base = Hashtbl.find t.bases source in
    let* strategy =
      if incremental_capable definition plan then
        Ok (Incremental (build_incremental t plan base))
      else
        let* { Eval.result = rel; _ } = Eval.execute cat plan in
        Ok (Recompute { rel; stale = false })
    in
    let replaced = Hashtbl.mem t.views key in
    (* Cached results of a same-named earlier view would be returned
       verbatim for textually identical queries: drop everything. *)
    ignore (Live.Cache.clear t.cache);
    Hashtbl.replace t.views key
      {
        vname = name;
        source;
        definition;
        out_schema = plan.Semant.out_schema;
        strategy;
        vversion = 0;
      };
    Ok
      (Ack
         (Printf.sprintf "view %s %s (%s maintenance)" name
            (if replaced then "replaced" else "created")
            (match strategy with
            | Incremental _ -> "incremental"
            | Recompute _ -> "recompute")))

let refresh_view t name =
  match Hashtbl.find_opt t.views (fold name) with
  | None -> Error (Printf.sprintf "unknown view %S" name)
  | Some v ->
      let cat = catalog t in
      let* plan = Eval.plan ~adaptive:t.adaptive cat v.definition in
      let base = Hashtbl.find t.bases v.source in
      let* strategy =
        match v.strategy with
        | Incremental _ -> Ok (Incremental (build_incremental t plan base))
        | Recompute _ ->
            let* { Eval.result = rel; _ } = Eval.execute cat plan in
            t.stats.Live.Stats.rebuilds <- t.stats.Live.Stats.rebuilds + 1;
            Ok (Recompute { rel; stale = false })
      in
      v.strategy <- strategy;
      v.vversion <- v.vversion + 1;
      Ok (Ack (Printf.sprintf "view %s refreshed (version %d)" v.vname v.vversion))

let drop_view t name =
  match Hashtbl.find_opt t.views (fold name) with
  | None -> Error (Printf.sprintf "unknown view %S" name)
  | Some v ->
      Hashtbl.remove t.views (fold name);
      ignore (Live.Cache.clear t.cache);
      Ok (Ack (Printf.sprintf "view %s dropped" v.vname))

let insert_into t rel_name values window =
  let key = fold rel_name in
  if Hashtbl.mem t.views key then
    Error (Printf.sprintf "cannot INSERT into view %S" rel_name)
  else
    match Hashtbl.find_opt t.bases key with
    | None -> Error (Printf.sprintf "unknown relation %S" rel_name)
    | Some base ->
        let iv = interval_of_window window in
        let* tuple = Semant.tuple_of_literals base.schema values iv in
        let id = base.next_id in
        base.next_id <- id + 1;
        Hashtbl.replace base.ids id tuple;
        (match base.part with
        | Some p ->
            Storage.Partition.insert p tuple;
            Storage.Partition.flush p
        | None -> ());
        base.cached <- None;
        Obs.Stats.store_invalidate t.store key;
        touch_views t key (fun incr -> insert_tuple incr id tuple);
        ignore (Live.Cache.invalidate t.cache ~scope:key ~interval:iv);
        Ok (Ack (Printf.sprintf "inserted 1 tuple into %s" base.bname))

let delete_from t rel_name where =
  let key = fold rel_name in
  if Hashtbl.mem t.views key then
    Error (Printf.sprintf "cannot DELETE from view %S" rel_name)
  else
    match Hashtbl.find_opt t.bases key with
    | None -> Error (Printf.sprintf "unknown relation %S" rel_name)
    | Some base ->
        let* filter = Semant.predicate_filter base.schema where in
        let victims =
          Hashtbl.fold
            (fun id tu acc -> if filter tu then (id, tu) :: acc else acc)
            base.ids []
        in
        List.iter
          (fun (id, tu) ->
            Hashtbl.remove base.ids id;
            touch_views t key (fun incr -> delete_tuple incr id);
            ignore
              (Live.Cache.invalidate t.cache ~scope:key
                 ~interval:(Tuple.valid tu)))
          victims;
        if victims <> [] then begin
          (match base.part with
          | Some p -> ignore (Storage.Partition.delete p filter)
          | None -> ());
          base.cached <- None;
          Obs.Stats.store_invalidate t.store key
        end;
        Ok
          (Ack
             (Printf.sprintf "deleted %d tuple(s) from %s"
                (List.length victims) base.bname))

let create_table t name columns boundaries =
  let key = fold name in
  if Hashtbl.mem t.views key then
    Error (Printf.sprintf "%S is a view" name)
  else if Hashtbl.mem t.bases key then
    Error (Printf.sprintf "relation %S already exists" name)
  else
    match Schema.of_pairs columns with
    | exception Invalid_argument msg -> Error ("invalid schema: " ^ msg)
    | schema -> (
        let dir = Filename.concat (ensure_data_dir t) key in
        match
          Storage.Partition.create ?split_threshold:t.split_threshold
            ~boundaries ~dir schema
        with
        | exception Invalid_argument msg ->
            Error ("CREATE TABLE failed: " ^ msg)
        | p ->
            Hashtbl.replace t.bases key
              {
                bname = name;
                schema;
                ids = Hashtbl.create 16;
                next_id = 0;
                cached = None;
                part = Some p;
              };
            Ok
              (Ack
                 (Printf.sprintf "table %s created: %d shard(s) in %s" name
                    (Storage.Partition.shard_count p)
                    dir)))

let show_partitions t =
  match partitions t with
  | [] -> Ok (Ack "no partitioned relations")
  | parts ->
      let buf = Buffer.create 256 in
      List.iter
        (fun (name, p) ->
          let module P = Storage.Partition in
          Buffer.add_string buf
            (Printf.sprintf
               "partition %s: %d shard(s), %d tuple(s), split threshold %d, \
                dir %s\n"
               name (P.shard_count p) (P.cardinality p) (P.split_threshold p)
               (P.dir p));
          List.iter
            (fun (i : P.shard_info) ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  shard %d: %s  %s  %d tuple(s)  io: %dr/%dw/%dretry/%dbad\n"
                   i.P.si_index i.P.si_file
                   (Interval.to_string i.P.si_cover)
                   i.P.si_cardinality i.P.si_io.Storage.Io_stats.pages_read
                   i.P.si_io.Storage.Io_stats.pages_written
                   i.P.si_io.Storage.Io_stats.retries
                   i.P.si_io.Storage.Io_stats.corrupt_pages))
            (P.shard_infos p);
          let queries, scanned, pruned = P.pruning_totals p in
          Buffer.add_string buf
            (Printf.sprintf
               "  pruning: %d quer%s planned, %d shard(s) scanned, %d pruned%s\n"
               queries
               (if queries = 1 then "y" else "ies")
               scanned pruned
               (if scanned + pruned = 0 then ""
                else
                  Printf.sprintf " (%.1f%% pruned)"
                    (100.
                    *. float_of_int pruned
                    /. float_of_int (scanned + pruned)))))
        parts;
      Ok (Ack (String.trim (Buffer.contents buf)))

(* ---- queries ---- *)

let view_query_shape_ok (q : Ast.query) =
  q.Ast.select = [ Ast.Star ]
  && q.Ast.where = []
  && q.Ast.group_by = []
  && q.Ast.grouping = Ast.By_instant
  && q.Ast.using = None

let compute_view_rows t v window =
  match v.strategy with
  | Incremental incr ->
      let timelines =
        List.map (function Agg { view; _ } -> Live.View.snapshot view) incr.aggs
      in
      let zipped =
        Timeline.coalesce
          ~equal:(List.equal Value.equal)
          (Eval.zip_timelines timelines)
      in
      let clipped =
        match window with
        | None -> Some zipped
        | Some w -> Timeline.clip zipped w
      in
      let rows =
        match clipped with
        | None -> []
        | Some tl ->
            List.map
              (fun (iv, values) -> Tuple.make (Array.of_list values) iv)
              (Timeline.to_list tl)
      in
      Ok (Trel.create v.out_schema rows)
  | Recompute r ->
      let* () =
        if r.stale then begin
          let cat = catalog t in
          let* plan = Eval.plan ~adaptive:t.adaptive cat v.definition in
          let* { Eval.result = rel; _ } = Eval.execute cat plan in
          r.rel <- rel;
          r.stale <- false;
          t.stats.Live.Stats.rebuilds <- t.stats.Live.Stats.rebuilds + 1;
          Ok ()
        end
        else Ok ()
      in
      let rows =
        match window with
        | None -> Trel.tuples r.rel
        | Some w ->
            List.filter_map
              (fun tu ->
                Option.map (Tuple.with_valid tu)
                  (Interval.intersect (Tuple.valid tu) w))
              (Trel.tuples r.rel)
      in
      Ok (Trel.create (Trel.schema r.rel) rows)

let select_view t v (q : Ast.query) =
  if not (view_query_shape_ok q) then
    Error
      (Printf.sprintf
         "queries against view %S must be SELECT * FROM %s [DURING [a,b]]; \
          re-aggregating a view is not supported"
         v.vname v.vname)
  else
    let window = Option.map interval_of_window q.Ast.during in
    let cache_key = Ast.statement_to_string (Ast.Select q) in
    match Live.Cache.find t.cache cache_key with
    | Some rel -> Ok (Rows rel)
    | None ->
        let* rel = compute_view_rows t v window in
        Live.Cache.add t.cache ~key:cache_key ~scope:v.source
          ~interval:(Option.value window ~default:Interval.full)
          ~version:v.vversion rel;
        Ok (Rows rel)

(* A query against a base relation: planned once, against one catalog,
   and evaluated once. *)
let select_base ?memory_budget ?deadline_ms ?on_error t (q : Ast.query) =
  let cat = catalog t in
  let* plan = Eval.plan ~adaptive:t.adaptive ?on_error cat q in
  (if plan.Semant.shard_layout <> [] then
     match Hashtbl.find_opt t.bases (fold q.Ast.from) with
     | Some { part = Some p; _ } ->
         Storage.Partition.record_pruning p ~scanned:plan.Semant.scanned_shards
           ~pruned:plan.Semant.pruned_shards
     | _ -> ());
  (* A join's right side prunes against its own layout; credit its
     partition the same way. *)
  (match plan.Semant.join with
  | Some j when j.Semant.right_shard_layout <> [] -> (
      match Hashtbl.find_opt t.bases (fold j.Semant.right_name) with
      | Some { part = Some p; _ } ->
          Storage.Partition.record_pruning p ~scanned:j.Semant.right_scanned
            ~pruned:j.Semant.right_pruned
      | _ -> ())
  | _ -> ());
  let planned = Option.map (fun j -> j.Semant.strategy) plan.Semant.join in
  t.last_join <- Option.map Join.Engine.strategy_to_string planned;
  let* report = Eval.execute ?memory_budget ?deadline_ms cat plan in
  t.last_degradations <- List.length report.Eval.degradations;
  (* A join that ran another strategy than planned fell back to the
     nested loop; mark the recorded strategy so the slowlog can tell
     them apart. *)
  (match (planned, report.Eval.join) with
  | Some chosen, Some ran when ran <> chosen ->
      t.last_join <-
        Some
          (Printf.sprintf "%s -> %s (fallback)"
             (Join.Engine.strategy_to_string chosen)
             (Join.Engine.strategy_to_string ran))
  | _ -> ());
  Ok (plan, report)

let select ?memory_budget ?deadline_ms ?on_error t (q : Ast.query) =
  match Hashtbl.find_opt t.views (fold q.Ast.from) with
  | Some v -> select_view t v q
  | None ->
      let* _, report = select_base ?memory_budget ?deadline_ms ?on_error t q in
      Ok (Rows report.Eval.result)

let explain_analyze ?memory_budget ?deadline_ms ?on_error t (q : Ast.query) =
  match Hashtbl.find_opt t.views (fold q.Ast.from) with
  | Some v ->
      Error
        (Printf.sprintf
           "EXPLAIN ANALYZE targets a base relation; %S is a view (its \
            answers come from a materialized timeline, not a fresh \
            evaluation)"
           v.vname)
  | None ->
      let* _, text =
        Eval.analyze (fun () ->
            select_base ?memory_budget ?deadline_ms ?on_error t q)
      in
      Ok (Ack text)

(* ANALYZE: one pass over the relation in physical order, feeding the
   streaming k estimator and the distinct-endpoint sketch; the exact
   k-ordered-percentage at the estimated k is affordable because the
   relation is already in memory.  Results land in the statistics store
   under the relation's name, replacing any previous analysis. *)
let analyze_relation t name =
  let key = fold name in
  if Hashtbl.mem t.views key then
    Error
      (Printf.sprintf
         "ANALYZE targets a base relation; %S is a view (its materialized \
          timeline is not what queries scan)"
         name)
  else
    match Hashtbl.find_opt t.bases key with
    | None -> Error (Printf.sprintf "unknown relation %S" name)
    | Some base ->
        let rel = materialize base in
        let est = Ordering.Korder.relation_estimator rel in
        let sketch = Obs.Stats.Distinct.sketch () in
        List.iter
          (fun tu ->
            let iv = Tuple.valid tu in
            Obs.Stats.Distinct.add sketch (Chronon.to_int (Interval.start iv));
            Obs.Stats.Distinct.add sketch (Chronon.to_int (Interval.stop iv)))
          (Trel.tuples rel);
        let k = Ordering.Korder.estimate est in
        let slack = Ordering.Korder.slack est in
        let percentage =
          if k = 0 then None
          else Some (Ordering.Korder.relation_percentage ~k rel)
        in
        let analysis =
          {
            Obs.Stats.an_cardinality = Trel.cardinality rel;
            an_k = k;
            an_slack = slack;
            an_percentage = percentage;
            an_time_ordered = k = 0;
            an_distinct_endpoints = Obs.Stats.Distinct.estimate sketch;
          }
        in
        Obs.Stats.set_analysis (Obs.Stats.store_get t.store key) analysis;
        (* A partitioned base additionally gets its shard boundaries
           re-derived from the endpoint sketch (equi-depth over the
           sampled instants) and one statistics entry per shard, so the
           planner and SHOW STATS see the post-ANALYZE layout. *)
        let repartition_note =
          match base.part with
          | None -> ""
          | Some _ when Trel.cardinality rel = 0 -> ""
          | Some p ->
              let starts =
                List.map
                  (fun tu -> Chronon.to_int (Interval.start (Tuple.valid tu)))
                  (Trel.tuples rel)
              in
              let lo = List.fold_left min max_int starts in
              let hi = List.fold_left max 0 starts in
              let shards =
                max
                  (Storage.Partition.shard_count p)
                  Tempagg.Optimizer.max_eval_shards
              in
              let boundaries =
                Storage.Partition.choose_boundaries ~shards ~lifespan:(lo, hi)
                  (Obs.Stats.Distinct.sample sketch)
              in
              Storage.Partition.repartition p boundaries;
              base.cached <- None;
              List.iter
                (fun (i : Storage.Partition.shard_info) ->
                  let tuples =
                    Storage.Partition.shard_tuples p i.Storage.Partition.si_index
                  in
                  let sest =
                    Ordering.Korder.estimator ~compare:Int.compare ()
                  in
                  let ssketch = Obs.Stats.Distinct.sketch () in
                  List.iter
                    (fun tu ->
                      let iv = Tuple.valid tu in
                      Ordering.Korder.observe sest
                        (Chronon.to_int (Interval.start iv));
                      Obs.Stats.Distinct.add ssketch
                        (Chronon.to_int (Interval.start iv));
                      Obs.Stats.Distinct.add ssketch
                        (Chronon.to_int (Interval.stop iv)))
                    tuples;
                  let sk = Ordering.Korder.estimate sest in
                  Obs.Stats.set_analysis
                    (Obs.Stats.store_get t.store
                       (Printf.sprintf "%s/shard-%d" key
                          i.Storage.Partition.si_index))
                    {
                      Obs.Stats.an_cardinality = List.length tuples;
                      an_k = sk;
                      an_slack = Ordering.Korder.slack sest;
                      an_percentage = None;
                      an_time_ordered = sk = 0;
                      an_distinct_endpoints =
                        Obs.Stats.Distinct.estimate ssketch;
                    })
                (Storage.Partition.shard_infos p);
              Printf.sprintf ", repartitioned into %d shard(s)"
                (Storage.Partition.shard_count p)
        in
        Ok
          (Ack
             (Printf.sprintf
                "analyzed %s: %d tuple(s), k<=%d%s%s, %s, ~%d distinct \
                 endpoint(s)%s"
                base.bname analysis.Obs.Stats.an_cardinality k
                (if slack > 0 then Printf.sprintf " (+%d merge slack)" slack
                 else "")
                (match percentage with
                | Some p -> Printf.sprintf " (%.1f%% of the k budget)" (100. *. p)
                | None -> "")
                (if k = 0 then "sorted by time" else "not time-ordered")
                analysis.Obs.Stats.an_distinct_endpoints repartition_note))

let show_stats t = Ok (Ack (Obs.Stats.store_to_string t.store))

let show_trace () = Ok (Ack (Obs.Recorder.trace_status ()))
let show_recorder () = Ok (Ack (Obs.Recorder.summary ()))

let set_introspection ~slo t = t.slo_provider <- Some slo

let show_metrics () =
  Ok (Ack "SHOW METRICS is answered by the server (serve), like METRICS")

let show_slo t =
  match t.slo_provider with
  | Some f -> Ok (Ack (f ()))
  | None ->
      Ok (Ack "no SLO engine attached to this session (serve with --slo FILE)")

(* Swap a base relation's contents wholesale — how the server pushes a
   fresh scrape of the self-relations into every session.  Statistics
   and cached results tied to the old contents are invalidated;
   dependent views are rebuilt (incremental) or marked stale
   (recompute), since a replacement has no per-tuple delta. *)
let replace_base t name rel =
  let key = fold name in
  (match Hashtbl.find_opt t.bases key with
  | Some base when not (Schema.equal base.schema (Trel.schema rel)) ->
      invalid_arg
        (Printf.sprintf "Session.replace_base: schema of %S changed" name)
  | _ -> ());
  add_base t name rel;
  Obs.Stats.store_invalidate t.store key;
  ignore (Live.Cache.invalidate t.cache ~scope:key ~interval:Interval.full);
  Hashtbl.iter
    (fun _ v ->
      if String.equal v.source key then begin
        (match v.strategy with
        | Recompute r -> r.stale <- true
        | Incremental _ -> (
            let base = Hashtbl.find t.bases key in
            match Eval.plan ~adaptive:t.adaptive (catalog t) v.definition with
            | Ok plan -> v.strategy <- Incremental (build_incremental t plan base)
            | Error _ ->
                v.strategy <-
                  Recompute { rel = Trel.create v.out_schema []; stale = true }));
        v.vversion <- v.vversion + 1
      end)
    t.views

let exec_statement ?memory_budget ?deadline_ms ?on_error t stmt =
  t.last_degradations <- 0;
  t.last_join <- None;
  match stmt with
  | Ast.Select q -> select ?memory_budget ?deadline_ms ?on_error t q
  | Ast.Explain_analyze q ->
      explain_analyze ?memory_budget ?deadline_ms ?on_error t q
  | Ast.Analyze name -> analyze_relation t name
  | Ast.Show_stats -> show_stats t
  | Ast.Create_view { name; definition } -> create_view t name definition
  | Ast.Refresh_view name -> refresh_view t name
  | Ast.Drop_view name -> drop_view t name
  | Ast.Insert_into { relation; values; window } ->
      insert_into t relation values window
  | Ast.Delete_from { relation; where } -> delete_from t relation where
  | Ast.Create_table { name; columns; boundaries } ->
      create_table t name columns boundaries
  | Ast.Show_partitions -> show_partitions t
  | Ast.Show_trace -> show_trace ()
  | Ast.Show_recorder -> show_recorder ()
  | Ast.Show_metrics -> show_metrics ()
  | Ast.Show_slo -> show_slo t

let last_degradations t = t.last_degradations
let last_join t = t.last_join

let exec t text =
  let* stmt = Parser.parse_statement text in
  exec_statement t stmt
