(* Tests for the self-monitoring layer: the scraper's delta encoding
   into the [_metrics] / [_requests] temporal relations, retention and
   engine-driven downsampling (checked as a temporal-aggregate
   equivalence, per the paper's semantics), the TSQL oracle for
   AVG-over-DURING against the self-relations, engine-backed SLO
   verdicts with a forced breach, and an end-to-end TCP session where
   the server's own telemetry is queried like any other relation. *)

open Temporal
open Relation

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

let check_float msg expected got =
  if not (feq expected got) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected got

let test_config =
  {
    Selfmon.Scrape.tick_us = 1_000_000;
    retention_us = 3_600_000_000;
    raw_us = 300_000_000;
    compact_window_us = 60_000_000;
    latency_families = [ "lat_us" ];
    error_families = [ "errs_total" ];
  }

(* Render one [_metrics] tuple as (name, labels, value, start, stop). *)
let metric_rows scraper =
  List.map
    (fun tu ->
      let s v =
        match Tuple.value tu v with Value.Str x -> x | _ -> "?"
      in
      let f =
        match Tuple.value tu 2 with Value.Float x -> x | _ -> nan
      in
      let iv = Tuple.valid tu in
      ( s 0,
        s 1,
        f,
        Chronon.to_int (Interval.start iv),
        Chronon.to_int (Interval.stop iv) ))
    (Trel.tuples (Selfmon.Scrape.metrics_relation scraper))

(* ------------------------------------------------------------------ *)
(* Scraping: gauges, counter rates, request rows                       *)
(* ------------------------------------------------------------------ *)

let test_scrape_gauge_and_counter_rate () =
  let registry = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge registry "g" in
  let c = Obs.Metrics.counter registry "c_total" in
  let scraper = Selfmon.Scrape.create ~config:test_config registry in
  Obs.Metrics.set g 10.;
  (* First tick records the delta baseline and emits nothing. *)
  Selfmon.Scrape.tick ~now_us:1_000_000 scraper;
  Alcotest.(check (pair int int)) "baseline emits nothing" (0, 0)
    (Selfmon.Scrape.row_counts scraper);
  Obs.Metrics.set g 20.;
  Obs.Metrics.add c 5.;
  Selfmon.Scrape.tick ~now_us:2_000_000 scraper;
  let rows = metric_rows scraper in
  Alcotest.(check int) "one row per series" 2 (List.length rows);
  (match List.find_opt (fun (n, _, _, _, _) -> n = "g") rows with
  | Some (_, labels, v, start, stop) ->
      Alcotest.(check string) "no labels" "" labels;
      check_float "gauge stored as-is" 20. v;
      Alcotest.(check int) "row start" 1_000_000 start;
      Alcotest.(check int) "closed stop just before the next tick"
        1_999_999 stop
  | None -> Alcotest.fail "missing _metrics row for the gauge");
  (match List.find_opt (fun (n, _, _, _, _) -> n = "c_total") rows with
  | Some (_, _, v, _, _) -> check_float "counter delta per second" 5. v
  | None -> Alcotest.fail "missing _metrics row for the counter");
  (* A counter that does not move scrapes as a zero rate, and a reset
     (monotonicity violation) clamps at zero instead of going negative. *)
  Selfmon.Scrape.tick ~now_us:3_000_000 scraper;
  match
    List.find_opt
      (fun (n, _, _, start, _) -> n = "c_total" && start = 2_000_000)
      (metric_rows scraper)
  with
  | Some (_, _, v, _, _) -> check_float "idle counter rate" 0. v
  | None -> Alcotest.fail "missing second counter row"

let test_scrape_labels_rendered () =
  let registry = Obs.Metrics.create () in
  let g =
    Obs.Metrics.gauge registry ~labels:[ ("b", "2"); ("a", "1") ] "g"
  in
  Obs.Metrics.set g 7.;
  let scraper = Selfmon.Scrape.create ~config:test_config registry in
  Selfmon.Scrape.tick ~now_us:1_000_000 scraper;
  Selfmon.Scrape.tick ~now_us:2_000_000 scraper;
  match metric_rows scraper with
  | [ (_, labels, _, _, _) ] ->
      (* Sorted by key, exposition-style — WHERE labels = '...' matches
         what METRICS prints. *)
      Alcotest.(check string) "label rendering" "a=\"1\",b=\"2\"" labels
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_scrape_requests_rows () =
  let registry = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram registry ~labels:[ ("kind", "select") ] "lat_us"
  in
  let errs = Obs.Metrics.counter registry "errs_total" in
  let scraper = Selfmon.Scrape.create ~config:test_config registry in
  Obs.Histogram.observe h 100.;
  Selfmon.Scrape.tick ~now_us:1_000_000 scraper;
  (* Only the post-baseline observations land in this interval's row. *)
  List.iter (Obs.Histogram.observe h) [ 200.; 300.; 400. ];
  Obs.Metrics.add errs 2.;
  Selfmon.Scrape.tick ~now_us:2_000_000 scraper;
  let rows = Trel.tuples (Selfmon.Scrape.requests_relation scraper) in
  Alcotest.(check int) "ok + error rows" 2 (List.length rows);
  let find outcome =
    List.find_opt
      (fun tu -> Tuple.value tu 1 = Value.Str outcome)
      rows
  in
  (match find "ok" with
  | Some tu ->
      Alcotest.(check bool) "kind from the histogram label" true
        (Tuple.value tu 0 = Value.Str "select");
      (match Tuple.value tu 2 with
      | Value.Float rate -> check_float "count delta per second" 3. rate
      | v -> Alcotest.failf "rate not a float: %s" (Value.to_string v));
      (match (Tuple.value tu 3, Tuple.value tu 4) with
      | Value.Float p50, Value.Float p99 ->
          (* Nearest-rank over the bucket-count deltas: the estimate is
             the bucket upper bound, within gamma (5%) of the exact
             in-interval answer. *)
          Alcotest.(check bool) "p50 within 5% above 300" true
            (p50 >= 300. && p50 <= 300. *. 1.05);
          Alcotest.(check bool) "p99 within 5% above 400" true
            (p99 >= 400. && p99 <= 400. *. 1.05)
      | _ -> Alcotest.fail "percentiles must be floats on an ok row")
  | None -> Alcotest.fail "missing outcome=ok request row");
  match find "error" with
  | Some tu ->
      Alcotest.(check bool) "kindless error counter folds to _all" true
        (Tuple.value tu 0 = Value.Str "_all");
      (match Tuple.value tu 2 with
      | Value.Float rate -> check_float "error rate" 2. rate
      | v -> Alcotest.failf "rate not a float: %s" (Value.to_string v));
      Alcotest.(check bool) "error rows carry no percentiles" true
        (Tuple.value tu 3 = Value.Null && Tuple.value tu 4 = Value.Null)
  | None -> Alcotest.fail "missing outcome=error request row"

(* ------------------------------------------------------------------ *)
(* The engine as oracle: AVG(value) DURING over _metrics               *)
(* ------------------------------------------------------------------ *)

(* Drive a gauge through known values at known ticks, then check that
   the engine's temporal AVG over [_metrics] reproduces the hand-built
   timeline — including DURING clipping mid-row. *)
let test_metrics_avg_during_oracle () =
  let registry = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge registry "g" in
  let scraper = Selfmon.Scrape.create ~config:test_config registry in
  Selfmon.Scrape.tick ~now_us:1_000_000 scraper;
  Obs.Metrics.set g 10.;
  Selfmon.Scrape.tick ~now_us:2_000_000 scraper;
  Obs.Metrics.set g 30.;
  Selfmon.Scrape.tick ~now_us:3_000_000 scraper;
  let source = Selfmon.Monitor.source (Selfmon.Scrape.catalog scraper) in
  let fetch q =
    match source.Obs.Slo.query q with
    | Ok rows ->
        List.sort (fun a b -> compare a.Obs.Slo.row_start b.Obs.Slo.row_start)
          rows
    | Error msg -> Alcotest.failf "query failed: %s" msg
  in
  (* Whole timeline: [1s,2s) at 10, [2s,3s) at 30. *)
  (match fetch "SELECT AVG(value) FROM _metrics WHERE name = 'g'" with
  | [ a; b ] ->
      Alcotest.(check int) "first segment start" 1_000_000 a.Obs.Slo.row_start;
      Alcotest.(check int) "first segment stop" 2_000_000 a.Obs.Slo.row_stop;
      check_float "first segment value" 10. a.Obs.Slo.row_value;
      Alcotest.(check int) "second segment start" 2_000_000 b.Obs.Slo.row_start;
      Alcotest.(check int) "second segment stop" 3_000_000 b.Obs.Slo.row_stop;
      check_float "second segment value" 30. b.Obs.Slo.row_value
  | rows -> Alcotest.failf "expected 2 segments, got %d" (List.length rows));
  (* DURING clips mid-row on both sides. *)
  match
    fetch
      "SELECT AVG(value) FROM _metrics DURING [1500000,2499999] WHERE name \
       = 'g'"
  with
  | [ a; b ] ->
      Alcotest.(check int) "clipped start" 1_500_000 a.Obs.Slo.row_start;
      Alcotest.(check int) "clip boundary" 2_000_000 a.Obs.Slo.row_stop;
      check_float "clipped value unchanged" 10. a.Obs.Slo.row_value;
      Alcotest.(check int) "clipped stop" 2_500_000 b.Obs.Slo.row_stop;
      check_float "second clipped value" 30. b.Obs.Slo.row_value
  | rows ->
      Alcotest.failf "expected 2 clipped segments, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Retention                                                           *)
(* ------------------------------------------------------------------ *)

let test_retention_drops_old_rows () =
  let registry = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge registry "g" in
  Obs.Metrics.set g 1.;
  let config = { test_config with Selfmon.Scrape.retention_us = 2_500_000 } in
  let scraper = Selfmon.Scrape.create ~config registry in
  for i = 1 to 6 do
    Selfmon.Scrape.scrape ~now_us:(i * 1_000_000) scraper
  done;
  let rows = metric_rows scraper in
  Alcotest.(check bool) "history was trimmed" true (List.length rows > 0);
  let horizon = 6_000_000 - 2_500_000 in
  List.iter
    (fun (name, _, _, _, stop) ->
      if stop < horizon then
        Alcotest.failf "row %s ends at %d, before the horizon %d" name stop
          horizon)
    rows

(* ------------------------------------------------------------------ *)
(* Compaction as a temporal-aggregate equivalence (QCheck)             *)
(* ------------------------------------------------------------------ *)

(* The correctness claim for downsampling: replacing old rows by their
   SPAN-w AVG (splitting straddlers at the span-aligned boundary first)
   changes no SPAN-w arithmetic-mean aggregate.  Drive two scrapers
   through the same randomized gauge history — one compacting, one
   keeping raw history — and check the engine's
   [AVG(value) GROUP BY ... SPAN w] answers are identical. *)
let compaction_equivalence_prop =
  let open QCheck2 in
  let step =
    Gen.pair (Gen.int_range 400_000 1_600_000) (Gen.float_range 0. 100.)
  in
  let gen = Gen.list_size (Gen.int_range 15 40) step in
  Test.make ~name:"compaction preserves SPAN-w AVG aggregates" ~count:60 gen
    (fun steps ->
      let config =
        {
          test_config with
          Selfmon.Scrape.raw_us = 3_000_000;
          compact_window_us = 2_000_000;
        }
      in
      let make () =
        let registry = Obs.Metrics.create () in
        let g = Obs.Metrics.gauge registry "g" in
        (registry, g, Selfmon.Scrape.create ~config registry)
      in
      let _, ga, compacting = make () in
      let _, gb, raw = make () in
      let now = ref 1_000_000 in
      List.iter
        (fun (gap, v) ->
          Obs.Metrics.set ga v;
          Obs.Metrics.set gb v;
          (* scrape compacts; tick keeps full-resolution history *)
          Selfmon.Scrape.scrape ~now_us:!now compacting;
          Selfmon.Scrape.tick ~now_us:!now raw;
          now := !now + gap)
        steps;
      if Selfmon.Scrape.compactions compacting = 0 then
        Test.fail_report "history never crossed the compaction boundary";
      let q =
        "SELECT name, AVG(value) FROM _metrics WHERE name = 'g' GROUP BY \
         name, SPAN 2000000"
      in
      let answer scraper =
        match
          Tsql.Eval.query ~adaptive:false (Selfmon.Scrape.catalog scraper) q
        with
        | Error msg -> Test.fail_reportf "oracle query failed: %s" msg
        | Ok rel ->
            List.map
              (fun tu ->
                let iv = Relation.Tuple.valid tu in
                ( Chronon.to_int (Interval.start iv),
                  Chronon.to_int (Interval.stop iv),
                  match Relation.Tuple.value tu 1 with
                  | Value.Float v -> v
                  | _ -> nan ))
              (Trel.tuples (Trel.sort_by_time rel))
      in
      let a = answer compacting and b = answer raw in
      if List.length a <> List.length b then
        Test.fail_reportf "segment counts differ: compacted %d, raw %d"
          (List.length a) (List.length b);
      List.iter2
        (fun (s1, e1, v1) (s2, e2, v2) ->
          if s1 <> s2 || e1 <> e2 || not (feq ~eps:1e-9 v1 v2) then
            Test.fail_reportf
              "segments differ: compacted [%d,%d]=%.9g raw [%d,%d]=%.9g" s1
              e1 v1 s2 e2 v2)
        a b;
      true)

(* ------------------------------------------------------------------ *)
(* SLO verdicts through the engine, with a hand-computed oracle        *)
(* ------------------------------------------------------------------ *)

(* Equal ok and error rates against a 0.5 error-ratio bound: observed
   ratio is exactly 1.0 in both windows, burn exactly 2.0 — a breach.
   The p99 objective sees ~100us latencies against a 1ms bound: pass.
   Every number is checkable by hand from the scraped rows. *)
let test_slo_breach_oracle () =
  let registry = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram registry ~labels:[ ("kind", "select") ] "lat_us"
  in
  let errs = Obs.Metrics.counter registry "errs_total" in
  let scraper = Selfmon.Scrape.create ~config:test_config registry in
  Selfmon.Scrape.tick ~now_us:1_000_000 scraper;
  Obs.Histogram.observe h 100.;
  Obs.Histogram.observe h 100.;
  Obs.Metrics.add errs 2.;
  Selfmon.Scrape.tick ~now_us:2_000_000 scraper;
  let objectives =
    match
      Obs.Slo.parse
        "errors error_ratio < 0.5 over 2s fast 1s\n\
         lat p99 < 1ms over 2s fast 1s kind select"
    with
    | Ok os -> os
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  match Selfmon.Monitor.evaluate ~now_us:2_000_000 scraper objectives with
  | Error msg -> Alcotest.failf "evaluation failed: %s" msg
  | Ok report -> (
      (match report.Obs.Slo.r_evaluations with
      | [ e_err; e_lat ] ->
          check_float "observed ratio, slow window" 1.
            e_err.Obs.Slo.e_observed_slow;
          check_float "observed ratio, fast window" 1.
            e_err.Obs.Slo.e_observed_fast;
          check_float "burn = observed / threshold" 2. e_err.Obs.Slo.e_slow;
          check_float "fast burn" 2. e_err.Obs.Slo.e_fast;
          Alcotest.(check string) "both windows burning is a breach" "breach"
            (Obs.Slo.verdict_to_string e_err.Obs.Slo.e_verdict);
          Alcotest.(check bool) "worst windows are reported" true
            (List.length e_err.Obs.Slo.e_worst > 0);
          Alcotest.(check string) "cheap latencies pass" "ok"
            (Obs.Slo.verdict_to_string e_lat.Obs.Slo.e_verdict);
          Alcotest.(check bool) "p99 estimate near 100us" true
            (e_lat.Obs.Slo.e_observed_fast >= 100.
            && e_lat.Obs.Slo.e_observed_fast <= 105.)
      | evs ->
          Alcotest.failf "expected 2 evaluations, got %d" (List.length evs));
      (* The verdict metrics round-trip into a registry. *)
      let out = Obs.Metrics.create () in
      Obs.Slo.to_metrics out report;
      Alcotest.(check (option (float 1e-9))) "breach verdict gauge" (Some 2.)
        (Obs.Metrics.value out ~labels:[ ("slo", "errors") ]
           "tempagg_slo_verdict");
      Alcotest.(check (option (float 1e-9))) "pass verdict gauge" (Some 0.)
        (Obs.Metrics.value out ~labels:[ ("slo", "lat") ]
           "tempagg_slo_verdict"))

(* No traffic at all must not page: zero integrals observe 0, pass. *)
let test_slo_no_traffic_passes () =
  let registry = Obs.Metrics.create () in
  let scraper = Selfmon.Scrape.create ~config:test_config registry in
  Selfmon.Scrape.tick ~now_us:1_000_000 scraper;
  Selfmon.Scrape.tick ~now_us:2_000_000 scraper;
  let objectives =
    match Obs.Slo.parse "quiet error_ratio < 0.01 over 2s fast 1s" with
    | Ok os -> os
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  match Selfmon.Monitor.evaluate ~now_us:2_000_000 scraper objectives with
  | Error msg -> Alcotest.failf "evaluation failed: %s" msg
  | Ok report -> (
      match report.Obs.Slo.r_evaluations with
      | [ ev ] ->
          Alcotest.(check string) "no traffic is not an outage" "ok"
            (Obs.Slo.verdict_to_string ev.Obs.Slo.e_verdict)
      | _ -> Alcotest.fail "expected one evaluation")

(* ------------------------------------------------------------------ *)
(* End to end: self-relations over TCP                                 *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let with_server = Server_harness.with_server

let test_e2e_self_relations_over_tcp () =
  let objectives =
    match
      Obs.Slo.parse
        "probe error_ratio < 0.5 over 10s fast 1s\n\
         latency p99 < 10s over 10s fast 1s kind select"
    with
    | Ok os -> os
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  let config =
    {
      Net.Server.default_config with
      scrape_every_ms = Some 50;
      slo = objectives;
    }
  in
  with_server ~config (fun port report_of ->
      let c = Net.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Net.Client.close c)
        (fun () ->
          (* Generate some traffic, then give the scraper a few ticks. *)
          for _ = 1 to 5 do
            ignore (Net.Client.request c "SELECT COUNT(name) FROM Employed")
          done;
          Unix.sleepf 0.25;
          (* The server's own telemetry, via an ordinary temporal query. *)
          (match
             Net.Client.request c
               "SELECT AVG(value) FROM _metrics WHERE name = \
                'tempagg_net_queued'"
           with
          | Ok (Net.Protocol.Ok_reply { payload; _ }) ->
              Alcotest.(check bool) "queue-depth history has rows" true
                (List.length payload > 0)
          | _ -> Alcotest.fail "querying _metrics over TCP must succeed");
          (match
             Net.Client.request c "SELECT COUNT(rate) FROM _requests"
           with
          | Ok (Net.Protocol.Ok_reply _) -> ()
          | _ -> Alcotest.fail "querying _requests over TCP must succeed");
          (* SHOW SLO (statement) and SLO (verb) both answer from the
             last evaluation. *)
          (match Net.Client.request c "SHOW SLO" with
          | Ok (Net.Protocol.Ok_reply { payload; _ }) ->
              let text = String.concat "\n" payload in
              Alcotest.(check bool) "SHOW SLO names the objectives" true
                (contains text "probe" && contains text "latency")
          | _ -> Alcotest.fail "SHOW SLO must succeed");
          (match Net.Client.request c "SLO" with
          | Ok (Net.Protocol.Ok_reply { payload; _ }) ->
              Alcotest.(check bool) "SLO verb answers the same report" true
                (List.exists (fun l -> contains l "probe") payload)
          | _ -> Alcotest.fail "the SLO verb must succeed"));
      let report = report_of () in
      Alcotest.(check bool) "scrape ticks were taken" true
        (report.Net.Server.scrapes > 0);
      match report.Net.Server.slo_summary with
      | Some s ->
          Alcotest.(check bool) "summary covers the objectives" true
            (contains s "probe" && contains s "latency");
          let text = Net.Server.report_to_string report in
          Alcotest.(check bool) "report renders scrapes and SLO" true
            (contains text "self-scrape" && contains text "slo:")
      | None -> Alcotest.fail "a server with objectives must report on them")

(* Errors carry their statement kind, so a kind-scoped error-ratio
   objective sees them: half the SELECTs fail, and it breaches. *)
let test_e2e_kind_error_ratio_breaches () =
  let objectives =
    match
      Obs.Slo.parse "sel error_ratio < 0.01 over 10s fast 5s kind select"
    with
    | Ok os -> os
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  let config =
    {
      Net.Server.default_config with
      scrape_every_ms = Some 50;
      slo = objectives;
    }
  in
  let lines =
    List.concat
      (List.init 20 (fun _ ->
           [
             "SELECT COUNT(name) FROM Employed";
             "SELECT COUNT(name) FROM missing";
           ]))
  in
  let replies, report = Server_harness.run_lines ~config lines in
  Alcotest.(check int) "half answered ERR" 20
    (List.length
       (List.filter
          (function Ok (Net.Protocol.Err _) -> true | _ -> false)
          replies));
  Alcotest.(check (option (float 0.))) "kind select breaches" (Some 2.)
    (Obs.Metrics.value report.Net.Server.metrics ~labels:[ ("slo", "sel") ]
       "tempagg_slo_verdict")

let () =
  Alcotest.run "selfmon"
    [
      ( "scrape",
        [
          Alcotest.test_case "gauge and counter rate" `Quick
            test_scrape_gauge_and_counter_rate;
          Alcotest.test_case "label rendering" `Quick
            test_scrape_labels_rendered;
          Alcotest.test_case "request rows" `Quick test_scrape_requests_rows;
          Alcotest.test_case "retention" `Quick test_retention_drops_old_rows;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "AVG DURING over _metrics" `Quick
            test_metrics_avg_during_oracle;
          QCheck_alcotest.to_alcotest ~long:false compaction_equivalence_prop;
        ] );
      ( "slo",
        [
          Alcotest.test_case "forced breach matches the hand oracle" `Quick
            test_slo_breach_oracle;
          Alcotest.test_case "no traffic passes" `Quick
            test_slo_no_traffic_passes;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "kind error ratio breaches" `Quick
            test_e2e_kind_error_ratio_breaches;
          Alcotest.test_case "self-relations over TCP" `Quick
            test_e2e_self_relations_over_tcp;
        ] );
    ]
