type op_stats = {
  ops : int;
  errors : int;
  mean_us : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  max_us : float;
}

type report = {
  total : int;
  total_errors : int;
  elapsed_s : float;
  per_kind : (string * op_stats) list;
  session_stats : Live.Stats.t;
  metrics : Obs.Metrics.t;
  slowlog : Obs.Slowlog.t option;
}

let kind_of = function
  | Ast.Select _ -> "select"
  | Ast.Explain_analyze _ -> "explain-analyze"
  | Ast.Create_view _ -> "create-view"
  | Ast.Refresh_view _ -> "refresh-view"
  | Ast.Drop_view _ -> "drop-view"
  | Ast.Insert_into _ -> "insert"
  | Ast.Delete_from _ -> "delete"
  | Ast.Analyze _ -> "analyze"
  | Ast.Show_stats -> "show-stats"
  | Ast.Create_table _ -> "create-table"
  | Ast.Show_partitions -> "show-partitions"
  | Ast.Show_trace -> "show-trace"
  | Ast.Show_recorder -> "show-recorder"
  | Ast.Show_metrics -> "show-metrics"
  | Ast.Show_slo -> "show-slo"

(* Kinds in a stable display order. *)
let kind_order =
  [ "select"; "insert"; "delete"; "create-table"; "create-view";
    "refresh-view"; "drop-view"; "explain-analyze"; "analyze"; "show-stats";
    "show-partitions"; "show-trace"; "show-recorder"; "show-metrics";
    "show-slo" ]

(* Latencies live in per-kind log-bucketed histograms (gamma 1.05, a 5%
   relative error bound on percentiles) instead of raw sample arrays:
   count/mean/max stay exact, and the same histograms feed the registry's
   Prometheus exposition. *)
let stats_of_histogram h errors =
  {
    ops = Obs.Histogram.count h;
    errors;
    mean_us = Obs.Histogram.mean h;
    p50_us = Obs.Histogram.percentile h 0.5;
    p90_us = Obs.Histogram.percentile h 0.9;
    p99_us = Obs.Histogram.percentile h 0.99;
    max_us = Obs.Histogram.max_value h;
  }

let refresh_session_metrics registry session =
  Live.Stats.to_metrics registry (Session.stats session);
  Obs.Stats.store_to_metrics registry (Session.store session);
  Join.Telemetry.to_metrics registry;
  (* Partitioned-storage gauges, one set per partitioned relation.
     Registering the same (name, labels) pair on every refresh returns
     the existing gauge, so this is idempotent. *)
  List.iter
    (fun (name, p) ->
      let labels = [ ("relation", name) ] in
      Obs.Metrics.set_int
        (Obs.Metrics.gauge registry
           ~help:"Storage shards per partitioned relation" ~labels
           "tempagg_partition_shards")
        (Storage.Partition.shard_count p);
      let queries, scanned, pruned = Storage.Partition.pruning_totals p in
      Obs.Metrics.set_int
        (Obs.Metrics.gauge registry
           ~help:"Planned queries against the partitioned relation" ~labels
           "tempagg_partition_queries")
        queries;
      Obs.Metrics.set_int
        (Obs.Metrics.gauge registry
           ~help:"Shards scanned by planned queries" ~labels
           "tempagg_partition_shards_scanned")
        scanned;
      Obs.Metrics.set_int
        (Obs.Metrics.gauge registry
           ~help:"Shards pruned by planned queries" ~labels
           "tempagg_partition_shards_pruned")
        pruned;
      Obs.Metrics.set
        (Obs.Metrics.gauge registry
           ~help:
             "Fraction of candidate shards pruned across planned queries"
           ~labels "tempagg_partition_pruning_ratio")
        (if scanned + pruned = 0 then 0.
         else float_of_int pruned /. float_of_int (scanned + pruned)))
    (Session.partitions session)

let run ?(echo = false) ?(out = print_string) ?metrics_every ?slowlog session
    statements =
  let registry = Obs.Metrics.create () in
  (* SHOW METRICS answers with this loop's registry, refreshed at
     execution time — safe here because the serve loop is
     single-threaded. *)
  Session.set_introspection
    ~metrics:(fun () ->
      refresh_session_metrics registry session;
      Obs.Metrics.expose registry)
    session;
  let latency kind =
    Obs.Metrics.histogram registry
      ~help:"Statement latency in microseconds, by statement kind"
      ~labels:[ ("kind", kind) ]
      "tempagg_serve_latency_us"
  in
  let errors kind =
    Obs.Metrics.counter registry ~help:"Failed statements by kind"
      ~labels:[ ("kind", kind) ]
      "tempagg_serve_errors_total"
  in
  let seen_kinds = ref [] in
  let note_kind k =
    if not (List.mem k !seen_kinds) then seen_kinds := k :: !seen_kinds
  in
  (* Latencies and total elapsed time come from the monotonized clock
     shared with [Obs.Trace], not the wall clock, so reports survive
     clock steps and NTP adjustments mid-run. *)
  let started_us = Obs.Trace.now_us () in
  let executed = ref 0 in
  List.iter
    (fun stmt ->
      let kind = kind_of stmt in
      note_kind kind;
      let spans_before =
        if Obs.Trace.is_armed () then List.length (Obs.Trace.spans ()) else 0
      in
      (* With a slowlog, every statement carries a profile, so a slow
         query logs the profile of the run that was slow. *)
      let profile = Option.map (fun _ -> Obs.Profile.create ()) slowlog in
      let t0_us = Obs.Trace.now_us () in
      let result = Session.exec_statement ?profile session stmt in
      let dt_us = float_of_int (Obs.Trace.now_us () - t0_us) in
      Obs.Histogram.observe (latency kind) dt_us;
      (match slowlog with
      | Some log when dt_us /. 1000. >= Obs.Slowlog.threshold_ms log ->
          let span_labels =
            if Obs.Trace.is_armed () then
              List.filteri
                (fun i _ -> i >= spans_before)
                (Obs.Trace.spans ())
              |> List.map (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.label)
            else []
          in
          let detail =
            match (profile, result) with
            (* Only a query planned against a base relation fills it. *)
            | Some p, Ok _ when Obs.Profile.stats_source p <> None ->
                Some (Obs.Profile.to_string p)
            | _ -> None
          in
          ignore
            (Obs.Slowlog.observe log ~kind
               ~statement:(Ast.statement_to_string stmt)
               ~elapsed_ms:(dt_us /. 1000.) ?detail ~span_labels
               ?join:(Session.last_join session) ())
      | _ -> ());
      (match result with
      | Ok (Session.Rows rel) ->
          if echo then
            let text = Pretty.result_to_string rel in
            out
              (if String.length text > 0 && text.[String.length text - 1] = '\n'
               then text
               else text ^ "\n")
      | Ok (Session.Ack msg) -> if echo then out (msg ^ "\n")
      | Error msg ->
          Obs.Metrics.inc (errors kind);
          out (Printf.sprintf "error: %s\n" msg));
      incr executed;
      match metrics_every with
      | Some every when every > 0 && !executed mod every = 0 ->
          refresh_session_metrics registry session;
          out
            (Printf.sprintf "-- metrics after %d statement(s) --\n%s" !executed
               (Obs.Metrics.expose registry))
      | _ -> ())
    statements;
  let elapsed_s = float_of_int (Obs.Trace.now_us () - started_us) /. 1e6 in
  refresh_session_metrics registry session;
  let present = List.rev !seen_kinds in
  let kinds =
    List.filter (fun k -> List.mem k present) kind_order
    @ List.filter (fun k -> not (List.mem k kind_order)) present
  in
  let per_kind =
    List.map
      (fun k ->
        ( k,
          stats_of_histogram (latency k)
            (int_of_float (Obs.Metrics.counter_value (errors k))) ))
      kinds
  in
  {
    total = List.length statements;
    total_errors =
      List.fold_left
        (fun acc k -> acc + int_of_float (Obs.Metrics.counter_value (errors k)))
        0 kinds;
    elapsed_s;
    per_kind;
    session_stats = Session.stats session;
    metrics = registry;
    slowlog;
  }

let run_script ?echo ?out ?metrics_every ?slowlog session text =
  match Parser.parse_script text with
  | Error msg -> Error msg
  | Ok statements ->
      Ok (run ?echo ?out ?metrics_every ?slowlog session statements)

let report_to_string r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "serve: %d op(s) in %.3f s%s\n" r.total r.elapsed_s
       (if r.total_errors > 0 then
          Printf.sprintf " (%d error(s))" r.total_errors
        else ""));
  Buffer.add_string buf
    (Printf.sprintf "  %-14s %6s %6s %10s %10s %10s %10s %10s\n" "kind" "ops"
       "errs" "mean-us" "p50-us" "p90-us" "p99-us" "max-us");
  List.iter
    (fun (kind, s) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %6d %6d %10.1f %10.1f %10.1f %10.1f %10.1f\n"
           kind s.ops s.errors s.mean_us s.p50_us s.p90_us s.p99_us s.max_us))
    r.per_kind;
  Buffer.add_string buf
    ("  live: " ^ Live.Stats.to_string r.session_stats ^ "\n");
  (match r.slowlog with
  | None -> ()
  | Some log ->
      Buffer.add_string buf
        (match Obs.Slowlog.worst log with
        | None ->
            Printf.sprintf "  slowlog: 0 hit(s) at >= %.1f ms\n"
              (Obs.Slowlog.threshold_ms log)
        | Some w ->
            Printf.sprintf
              "  slowlog: %d hit(s) at >= %.1f ms; worst: %s (%.3f ms%s)\n"
              (Obs.Slowlog.hits log)
              (Obs.Slowlog.threshold_ms log)
              w.Obs.Slowlog.statement w.Obs.Slowlog.elapsed_ms
              (match List.assoc_opt w.Obs.Slowlog.kind r.per_kind with
              | Some s -> Printf.sprintf ", %s p99 %.1f us" w.Obs.Slowlog.kind s.p99_us
              | None -> "")));
  Buffer.contents buf
