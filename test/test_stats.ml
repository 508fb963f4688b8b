(* The observe -> store -> decide loop: the statistics store and its
   summary, ANALYZE / SHOW STATS, write invalidation, the slow-query
   log, and — end to end — the optimizer flipping its plan because of
   what ANALYZE measured, without changing the answer. *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S in %S" what needle hay)
    true (contains hay needle)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(* A relation whose tuples are exactly k-ordered: generated sorted, then
   perturbed tuple-wise (timestamps are distinct with overwhelming
   probability at these sizes, so tuple displacement = swap distance). *)
let perturbed_relation ~n ~k =
  let sorted =
    Relation.Trel.sort_by_time
      (Workload.Generate.relation (Workload.Spec.make ~n ~seed:3 ()))
  in
  let prng = Workload.Prng.create ~seed:11 in
  let tuples =
    Ordering.Perturb.k_ordered
      ~rand:(Workload.Prng.int_bounded prng)
      ~k ~percentage:0.05
      (Array.of_list (Relation.Trel.tuples sorted))
  in
  Relation.Trel.of_array (Relation.Trel.schema sorted) tuples

let outcome ?(cardinality = 100) ?(algorithm = "tree") ?(elapsed_ms = 1.)
    ?k_observed ?segments ?(degradations = 0) () =
  {
    Obs.Stats.cardinality;
    algorithm;
    elapsed_ms;
    k_observed;
    segments;
    degradations;
  }

(* ------------------------------------------------------------------ *)
(* Stats store unit behaviour                                          *)
(* ------------------------------------------------------------------ *)

let test_summary_sources () =
  let t = Obs.Stats.create () in
  Alcotest.(check string) "fresh" "none" (Obs.Stats.summary t).Obs.Stats.source;
  Obs.Stats.record t (outcome ~k_observed:5 ());
  Obs.Stats.record t (outcome ~k_observed:3 ~segments:42 ());
  Obs.Stats.record t (outcome ());
  let s = Obs.Stats.summary t in
  Alcotest.(check int) "observations" 3 s.Obs.Stats.observations;
  Alcotest.(check (option int)) "k_upper is the min" (Some 3)
    s.Obs.Stats.k_upper;
  Alcotest.(check string) "runtime source" "runtime" s.Obs.Stats.source;
  Alcotest.(check bool) "mean latency present" true
    (s.Obs.Stats.mean_eval_ms <> None)

let test_degraded_runs_prove_nothing () =
  let t = Obs.Stats.create () in
  Obs.Stats.record t (outcome ~k_observed:2 ~degradations:1 ());
  Alcotest.(check (option int)) "degraded k ignored" None
    (Obs.Stats.summary t).Obs.Stats.k_upper

let test_ring_is_bounded () =
  let t = Obs.Stats.create ~capacity:2 () in
  Obs.Stats.record t (outcome ~algorithm:"a" ());
  Obs.Stats.record t (outcome ~algorithm:"b" ());
  Obs.Stats.record t (outcome ~algorithm:"c" ());
  let names =
    List.map (fun o -> o.Obs.Stats.algorithm) (Obs.Stats.outcomes t)
  in
  Alcotest.(check (list string)) "newest two, newest first" [ "c"; "b" ] names;
  Alcotest.(check int) "observations count evictions too" 3
    (Obs.Stats.summary t).Obs.Stats.observations

let test_invalidate_keeps_latency () =
  let t = Obs.Stats.create () in
  Obs.Stats.record t (outcome ~k_observed:4 ());
  Obs.Stats.set_analysis t
    {
      Obs.Stats.an_cardinality = 100;
      an_k = 2;
      an_slack = 0;
      an_percentage = Some 0.01;
      an_time_ordered = false;
      an_distinct_endpoints = 180;
    };
  let s = Obs.Stats.summary t in
  Alcotest.(check (option int)) "analysis min-merges k" (Some 2)
    s.Obs.Stats.k_upper;
  Alcotest.(check string) "both sources" "analyze+runtime" s.Obs.Stats.source;
  Obs.Stats.invalidate t;
  let s = Obs.Stats.summary t in
  Alcotest.(check (option int)) "ordering claim dropped" None
    s.Obs.Stats.k_upper;
  Alcotest.(check bool) "analysis dropped" false s.Obs.Stats.analyzed;
  Alcotest.(check bool) "latency survives the write" true
    (s.Obs.Stats.mean_eval_ms <> None)

let test_store_case_folds () =
  let store = Obs.Stats.create_store () in
  Obs.Stats.record (Obs.Stats.store_get store "Employed") (outcome ());
  Alcotest.(check bool) "found under other case" true
    (Obs.Stats.store_find store "eMPLOYED" <> None);
  Alcotest.(check (list string)) "names" [ "employed" ]
    (Obs.Stats.store_names store);
  check_contains "printout names the relation"
    (Obs.Stats.store_to_string store)
    "employed";
  check_contains "empty printout says so"
    (Obs.Stats.store_to_string (Obs.Stats.create_store ()))
    "no statistics collected"

let test_distinct_sketch () =
  let s = Obs.Stats.Distinct.sketch () in
  for i = 1 to 10_000 do
    Obs.Stats.Distinct.add s i
  done;
  let est = float_of_int (Obs.Stats.Distinct.estimate s) in
  Alcotest.(check bool)
    (Printf.sprintf "10k distinct within 30%% (got %.0f)" est)
    true
    (est > 7_000. && est < 13_000.);
  let one = Obs.Stats.Distinct.sketch () in
  for _ = 1 to 1_000 do
    Obs.Stats.Distinct.add one 7
  done;
  Alcotest.(check int) "one distinct value" 1
    (Obs.Stats.Distinct.estimate one)

(* ------------------------------------------------------------------ *)
(* ANALYZE / SHOW STATS through the session                            *)
(* ------------------------------------------------------------------ *)

let exec s text =
  match Tsql.Session.exec s text with
  | Ok o -> o
  | Error e -> Alcotest.failf "%s failed: %s" text e

let ack s text =
  match exec s text with
  | Tsql.Session.Ack msg -> msg
  | Tsql.Session.Rows _ -> Alcotest.failf "%s: expected an Ack" text

let test_analyze_and_show_stats () =
  let catalog =
    Tsql.Catalog.add (Tsql.Catalog.create ()) "R" (perturbed_relation ~n:400 ~k:8)
  in
  let s = Tsql.Session.create catalog in
  let msg = ack s "ANALYZE R" in
  check_contains "ack" msg "analyzed R: 400 tuple(s)";
  check_contains "ack carries a bound" msg "k<=";
  check_contains "ack carries endpoints" msg "distinct endpoint(s)";
  let summary = Tsql.Catalog.stats_summary (Tsql.Session.catalog s) "r" in
  Alcotest.(check bool) "analyzed" true summary.Obs.Stats.analyzed;
  (match summary.Obs.Stats.k_upper with
  | Some k -> Alcotest.(check bool) (Printf.sprintf "8 <= k<=%d <= 15" k) true
        (k >= 8 && k <= 15)
  | None -> Alcotest.fail "no k bound after ANALYZE");
  check_contains "SHOW STATS prints the relation" (ack s "SHOW STATS") "r";
  (* Error cases: views and unknown names are not analyzable. *)
  ignore (ack s "CREATE VIEW V AS SELECT COUNT(Name) FROM R");
  (match Tsql.Session.exec s "ANALYZE V" with
  | Error e -> check_contains "view rejected" e "base relation"
  | Ok _ -> Alcotest.fail "ANALYZE on a view must fail");
  match Tsql.Session.exec s "ANALYZE Nope" with
  | Error e -> check_contains "unknown rejected" e "unknown relation"
  | Ok _ -> Alcotest.fail "ANALYZE on unknown must fail"

let test_analyze_detects_sorted () =
  let rel =
    Relation.Trel.sort_by_time
      (Workload.Generate.relation (Workload.Spec.make ~n:200 ~seed:4 ()))
  in
  let s =
    Tsql.Session.create (Tsql.Catalog.add (Tsql.Catalog.create ()) "R" rel)
  in
  check_contains "sorted reported" (ack s "ANALYZE R") "sorted by time";
  let summary = Tsql.Catalog.stats_summary (Tsql.Session.catalog s) "R" in
  Alcotest.(check (option bool)) "time_ordered" (Some true)
    summary.Obs.Stats.time_ordered

let test_writes_invalidate () =
  let s =
    Tsql.Session.create
      (Tsql.Catalog.add (Tsql.Catalog.create ()) "R"
         (perturbed_relation ~n:400 ~k:8))
  in
  ignore (ack s "ANALYZE R");
  let k_before =
    (Tsql.Catalog.stats_summary (Tsql.Session.catalog s) "R").Obs.Stats.k_upper
  in
  Alcotest.(check bool) "bound present" true (k_before <> None);
  ignore (ack s "INSERT INTO R VALUES ('Zed', 1) DURING [5,9]");
  let after =
    Tsql.Catalog.stats_summary (Tsql.Session.catalog s) "R"
  in
  Alcotest.(check (option int)) "insert drops the bound" None
    after.Obs.Stats.k_upper;
  Alcotest.(check bool) "analysis dropped too" false after.Obs.Stats.analyzed

let test_store_survives_catalog_rebuilds () =
  let s =
    Tsql.Session.create
      (Tsql.Catalog.add (Tsql.Catalog.create ()) "R"
         (perturbed_relation ~n:200 ~k:4))
  in
  ignore (exec s "SELECT COUNT(Name) FROM R");
  (* Each [Session.catalog] call materializes a fresh catalog; the store
     rides along by design. *)
  let c1 = Tsql.Session.catalog s and c2 = Tsql.Session.catalog s in
  Alcotest.(check bool) "first rebuild sees the outcome" true
    ((Tsql.Catalog.stats_summary c1 "R").Obs.Stats.observations > 0);
  Alcotest.(check int) "both rebuilds agree"
    (Tsql.Catalog.stats_summary c1 "R").Obs.Stats.observations
    (Tsql.Catalog.stats_summary c2 "R").Obs.Stats.observations

(* ------------------------------------------------------------------ *)
(* End to end: ANALYZE flips the plan, not the answer                  *)
(* ------------------------------------------------------------------ *)

let test_analyze_flips_the_plan () =
  let rel = perturbed_relation ~n:400 ~k:8 in
  let s =
    Tsql.Session.create (Tsql.Catalog.add (Tsql.Catalog.create ()) "R" rel)
  in
  (* MIN is not invertible, so the sweep fast path is out and the choice
     is between the aggregation tree and the k-ordered tree. *)
  let sql = "SELECT MIN(Salary) FROM R" in
  let explain catalog =
    match Tsql.Eval.explain catalog sql with
    | Ok text -> text
    | Error e -> Alcotest.failf "explain failed: %s" e
  in
  let before = explain (Tsql.Session.catalog s) in
  check_contains "before: declared metadata" before "stats: declared metadata";
  check_contains "before: aggregation tree" before "using aggregation-tree";
  ignore (ack s "ANALYZE R");
  let after = explain (Tsql.Session.catalog s) in
  check_contains "after: observed stats cited" after "stats: observed (analyze";
  check_contains "after: k-ordered tree" after "using ktree(";
  check_contains "after: rationale cites the observation" after "[stats: ";
  check_contains "after: observed k in the rationale" after "observed k<=";
  (* The flip is a plan change only: adaptive and non-adaptive answers
     are identical. *)
  let run ~adaptive =
    match Tsql.Eval.query ~adaptive (Tsql.Session.catalog s) sql with
    | Ok rel -> Tsql.Pretty.result_to_string rel
    | Error e -> Alcotest.failf "query failed: %s" e
  in
  Alcotest.(check string) "same timeline" (run ~adaptive:false)
    (run ~adaptive:true);
  (* EXPLAIN ANALYZE carries the provenance too. *)
  check_contains "profile stats line"
    (ack s ("EXPLAIN ANALYZE " ^ sql))
    "stats: observed (analyze"

let test_no_adaptive_session_ignores_stats () =
  let rel = perturbed_relation ~n:400 ~k:8 in
  let s =
    Tsql.Session.create ~adaptive:false
      (Tsql.Catalog.add (Tsql.Catalog.create ()) "R" rel)
  in
  ignore (ack s "ANALYZE R");
  check_contains "planner stays on declared metadata"
    (ack s "EXPLAIN ANALYZE SELECT MIN(Salary) FROM R")
    "stats: declared metadata"

(* ------------------------------------------------------------------ *)
(* Slow-query log                                                      *)
(* ------------------------------------------------------------------ *)

let test_slowlog_ring_and_worst () =
  let log = Obs.Slowlog.create ~capacity:2 ~threshold_ms:10. () in
  Alcotest.(check bool) "under threshold not kept" false
    (Obs.Slowlog.observe log ~kind:"select" ~statement:"fast" ~elapsed_ms:9.9
       ());
  ignore
    (Obs.Slowlog.observe log ~kind:"select" ~statement:"worst"
       ~elapsed_ms:500. ());
  ignore
    (Obs.Slowlog.observe log ~kind:"select" ~statement:"slow1"
       ~elapsed_ms:20. ());
  ignore
    (Obs.Slowlog.observe log ~kind:"insert" ~statement:"slow2"
       ~elapsed_ms:30. ~span_labels:[ "eval" ] ());
  Alcotest.(check int) "hits count evictions" 3 (Obs.Slowlog.hits log);
  Alcotest.(check (list string)) "ring keeps newest" [ "slow2"; "slow1" ]
    (List.map
       (fun e -> e.Obs.Slowlog.statement)
       (Obs.Slowlog.entries log));
  (match Obs.Slowlog.worst log with
  | Some w ->
      Alcotest.(check string) "worst survives eviction" "worst"
        w.Obs.Slowlog.statement
  | None -> Alcotest.fail "no worst entry");
  let json = Obs.Slowlog.to_json log in
  List.iter
    (check_contains "json" json)
    [
      "\"threshold_ms\": 10";
      "\"hits\": 3";
      "\"statement\": \"slow2\"";
      "\"spans\": [\"eval\"]";
      "\"profile\": null";
    ]

let test_serve_slowlog_capture () =
  let log = Obs.Slowlog.create ~threshold_ms:0. () in
  let config =
    { Net.Server.default_config with Net.Server.slowlog = Some log }
  in
  ignore
    (Server_harness.run_lines ~config
       [
         "SELECT COUNT(Name) FROM Employed;";
         "INSERT INTO Employed VALUES ('Zoe', 60000) DURING [12,18];";
         "SELECT MAX(Salary) FROM Employed;";
       ]);
  Alcotest.(check int) "threshold 0 captures everything" 3
    (Obs.Slowlog.hits log);
  (* Every entry carries its pinned trace as a span tree, whatever the
     kind; a SELECT's tree says which plan ran and why. *)
  let detail e =
    match e.Obs.Slowlog.detail with
    | Some text -> text
    | None -> Alcotest.fail "entry lost its span tree"
  in
  List.iter
    (fun e ->
      check_contains "span tree attached" (detail e) "  execute ";
      Alcotest.(check bool) "span labels from the pinned trace" true
        (List.mem "execute" e.Obs.Slowlog.span_labels))
    (Obs.Slowlog.entries log);
  let selects =
    List.filter
      (fun e -> e.Obs.Slowlog.kind = "select")
      (Obs.Slowlog.entries log)
  in
  Alcotest.(check int) "two selects" 2 (List.length selects);
  List.iter
    (fun e ->
      check_contains "plan choice" (detail e) "  plan algorithm=";
      check_contains "plan rationale" (detail e) " rationale=")
    selects;
  Alcotest.(check bool) "worst kept" true (Obs.Slowlog.worst log <> None);
  check_contains "json round-trips" (Obs.Slowlog.to_json log)
    " ms  request "

let () =
  Alcotest.run "stats"
    [
      ( "store",
        [
          Alcotest.test_case "summary sources" `Quick test_summary_sources;
          Alcotest.test_case "degraded runs prove nothing" `Quick
            test_degraded_runs_prove_nothing;
          Alcotest.test_case "ring bounded" `Quick test_ring_is_bounded;
          Alcotest.test_case "invalidate keeps latency" `Quick
            test_invalidate_keeps_latency;
          Alcotest.test_case "store case-folds" `Quick test_store_case_folds;
          Alcotest.test_case "distinct sketch" `Quick test_distinct_sketch;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "ANALYZE + SHOW STATS" `Quick
            test_analyze_and_show_stats;
          Alcotest.test_case "detects sorted input" `Quick
            test_analyze_detects_sorted;
          Alcotest.test_case "writes invalidate" `Quick test_writes_invalidate;
          Alcotest.test_case "store survives catalog rebuilds" `Quick
            test_store_survives_catalog_rebuilds;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "ANALYZE flips the plan, not the answer" `Quick
            test_analyze_flips_the_plan;
          Alcotest.test_case "--no-adaptive sessions ignore stats" `Quick
            test_no_adaptive_session_ignores_stats;
        ] );
      ( "slowlog",
        [
          Alcotest.test_case "ring, worst, json" `Quick
            test_slowlog_ring_and_worst;
          Alcotest.test_case "serve capture" `Quick test_serve_slowlog_capture;
        ] );
    ]
