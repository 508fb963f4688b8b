(* Tests for the observability subsystem: log-bucketed histograms
   against a sorted-array oracle, span-tree well-formedness under
   Parallel evaluation, the Prometheus exposition, the stats adapters,
   EXPLAIN ANALYZE profiles (aborted fallback attempts included), and
   the "tracing is free" overhead bar. *)

open Tempagg

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.fail (Printf.sprintf "%s: %S not found in:\n%s" what needle hay)

let count_data arr = Array.to_seq (Array.map (fun (iv, _) -> (iv, ())) arr)

let random_data ?(n = 2000) ?(seed = 11) () =
  Workload.Generate.random_intervals
    (Workload.Spec.make ~n ~lifespan:50_000 ~seed ())

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

(* The same nearest-rank the histogram implements, on the raw samples. *)
let oracle_percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float ((p *. float_of_int (n - 1)) +. 0.5) in
  sorted.(max 0 (min (n - 1) rank))

let test_histogram_oracle () =
  let gen =
    QCheck.make ~print:QCheck.Print.(list float)
      QCheck.Gen.(list_size (int_range 1 400) (float_range 0.05 2e6))
  in
  let prop values =
    let h = Obs.Histogram.create () in
    List.iter (Obs.Histogram.observe h) values;
    let sorted = Array.of_list values in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let exact_sum = List.fold_left ( +. ) 0. values in
    let gamma = Obs.Histogram.gamma h in
    Obs.Histogram.count h = n
    && abs_float (Obs.Histogram.sum h -. exact_sum)
       <= 1e-9 *. (1. +. abs_float exact_sum)
    && Obs.Histogram.min_value h = sorted.(0)
    && Obs.Histogram.max_value h = sorted.(n - 1)
    && abs_float (Obs.Histogram.mean h -. (exact_sum /. float_of_int n))
       <= 1e-9 *. (1. +. abs_float exact_sum)
    && List.for_all
         (fun p ->
           let v = oracle_percentile sorted p in
           let est = Obs.Histogram.percentile h p in
           (* The estimate is the upper bound of the oracle value's
              bucket, clamped into [min, max]: within a factor gamma
              above the exact answer, never below it by more than the
              clamp. *)
           est >= v -. 1e-9 && est <= (v *. gamma) +. 1e-9)
         [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ]
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"histogram vs sorted-array oracle" gen
       prop)

let test_histogram_basics () =
  let h = Obs.Histogram.create () in
  Alcotest.(check (float 0.)) "empty percentile" 0. (Obs.Histogram.percentile h 0.5);
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  List.iter (Obs.Histogram.observe h) [ 3.; 1.; 2.; 8.; 5. ];
  Alcotest.(check (float 0.)) "p0 = min" 1. (Obs.Histogram.percentile h 0.);
  Alcotest.(check (float 0.)) "p1 = max" 8. (Obs.Histogram.percentile h 1.);
  let last = ref neg_infinity in
  List.iter
    (fun p ->
      let v = Obs.Histogram.percentile h p in
      Alcotest.(check bool) "monotone in p" true (v >= !last);
      last := v)
    [ 0.; 0.25; 0.5; 0.75; 1. ];
  (* Out-of-range values clamp into the edge buckets; exact min and max
     still remember them, and percentiles stay inside [min, max]. *)
  let e = Obs.Histogram.create ~floor:1.0 ~ceiling:100. () in
  Obs.Histogram.observe e 1e-6;
  Obs.Histogram.observe e 1e9;
  Alcotest.(check (float 0.)) "exact min survives clamp" 1e-6
    (Obs.Histogram.min_value e);
  Alcotest.(check (float 0.)) "exact max survives clamp" 1e9
    (Obs.Histogram.max_value e);
  let p50 = Obs.Histogram.percentile e 0.5 in
  Alcotest.(check bool) "clamped percentile in range" true
    (p50 >= 1e-6 && p50 <= 1e9);
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset empties" 0 (Obs.Histogram.count h)

let test_histogram_merge () =
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe a) [ 1.; 10. ];
  List.iter (Obs.Histogram.observe b) [ 100.; 1000.; 5. ];
  Obs.Histogram.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 5 (Obs.Histogram.count a);
  Alcotest.(check (float 1e-6)) "merged sum" 1116. (Obs.Histogram.sum a);
  Alcotest.(check (float 0.)) "merged max" 1000. (Obs.Histogram.max_value a);
  let other = Obs.Histogram.create ~gamma:2. () in
  Alcotest.(check bool) "shape mismatch raises" true
    (match Obs.Histogram.merge_into ~into:a other with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Merging must not cost percentile accuracy: estimates over a merged
   histogram stay within the same gamma (5%) relative-error bound of
   the sorted oracle over the concatenated samples, exactly as if every
   value had been observed in one histogram. *)
let test_histogram_merge_oracle () =
  let gen =
    QCheck.make
      ~print:QCheck.Print.(pair (list float) (list float))
      QCheck.Gen.(
        pair
          (list_size (int_range 0 300) (float_range 0.05 2e6))
          (list_size (int_range 1 300) (float_range 0.05 2e6)))
  in
  let prop (xs, ys) =
    let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
    List.iter (Obs.Histogram.observe a) xs;
    List.iter (Obs.Histogram.observe b) ys;
    Obs.Histogram.merge_into ~into:a b;
    let sorted = Array.of_list (xs @ ys) in
    Array.sort compare sorted;
    let gamma = Obs.Histogram.gamma a in
    Obs.Histogram.count a = Array.length sorted
    && Obs.Histogram.min_value a = sorted.(0)
    && Obs.Histogram.max_value a = sorted.(Array.length sorted - 1)
    && List.for_all
         (fun p ->
           let v = oracle_percentile sorted p in
           let est = Obs.Histogram.percentile a p in
           est >= v -. 1e-9 && est <= (v *. gamma) +. 1e-9)
         [ 0.; 0.1; 0.5; 0.9; 0.99; 1. ]
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"merge_into vs sorted-array oracle"
       gen prop)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

(* With the ring off, nothing records and a span is a plain call. *)
let test_trace_disarmed_passthrough () =
  Obs.Trace.set_ring_capacity 0;
  let r = Obs.Trace.with_span "ignored" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check bool) "no open span" true (Obs.Trace.current () = None);
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Obs.Trace.recorded ()));
  Obs.Trace.set_ring_capacity 2048

(* Every Parallel evaluation spawns shard domains that trace and exit.
   Their rings must not pile up: an exited domain's spans move into one
   shared ring, so the rings hold at most the main domain's and that
   one, and the last run's shard spans stay visible. *)
let test_trace_exited_domains_retired () =
  Obs.Trace.set_ring_capacity 64;
  let data = random_data () in
  for _ = 1 to 50 do
    ignore
      (Sys.opaque_identity
         (Engine.eval
            (Engine.Parallel { domains = 3; inner = Engine.Sweep })
            Monoid.count (count_data data)))
  done;
  let occupancy, _ = Obs.Trace.ring_stats () in
  let shard_spans_elsewhere =
    List.exists
      (fun (s : Obs.Trace.span) ->
        s.label = "shard" && s.domain <> (Domain.self () :> int))
      (Obs.Trace.recorded ())
  in
  Obs.Trace.set_ring_capacity 2048;
  Alcotest.(check bool)
    (Printf.sprintf "%d spans held, at most two rings of 64" occupancy)
    true (occupancy <= 2 * 64);
  Alcotest.(check bool) "exited shard domains' spans visible" true
    shard_spans_elsewhere

(* Evaluate a 4-domain Parallel sweep on an emptied ring and check the
   span tree: one shard span per domain, every recorded parent id
   resolvable, and proper nesting (stack discipline) within each
   domain's timeline. *)
let test_trace_parallel_span_tree () =
  let data = random_data () in
  Obs.Trace.clear ();
  let tl =
    Engine.eval
      (Engine.Parallel { domains = 4; inner = Engine.Sweep })
      Monoid.count (count_data data)
  in
  ignore (Sys.opaque_identity tl);
  let spans = Obs.Trace.recorded () in
  let ids = List.map (fun (s : Obs.Trace.span) -> s.id) spans in
  let shards =
    List.filter (fun (s : Obs.Trace.span) -> s.label = "shard") spans
  in
  Alcotest.(check int) "one span per shard" 4 (List.length shards);
  List.iter
    (fun (s : Obs.Trace.span) ->
      Alcotest.(check bool) "span is closed" true (s.stop_us >= s.start_us);
      match s.parent with
      | None -> ()
      | Some p ->
          Alcotest.(check bool)
            (Printf.sprintf "parent %d of span %d exists" p s.id)
            true (List.mem p ids))
    spans;
  (* Shards hang off the outer eval span even though they ran on
     spawned domains with empty span stacks of their own. *)
  let outer =
    List.find (fun (s : Obs.Trace.span) -> s.label = "eval") spans
  in
  List.iter
    (fun (s : Obs.Trace.span) ->
      Alcotest.(check bool) "shard parented to eval" true
        (s.parent = Some outer.id))
    shards;
  (* Per-domain stack discipline: two spans recorded by one domain are
     either disjoint in time or properly nested, never interleaved. *)
  let by_domain = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      Hashtbl.replace by_domain s.domain
        (s :: (Option.value ~default:[] (Hashtbl.find_opt by_domain s.domain))))
    spans;
  Hashtbl.iter
    (fun _ ds ->
      List.iter
        (fun (a : Obs.Trace.span) ->
          List.iter
            (fun (b : Obs.Trace.span) ->
              if a.id <> b.id && a.start_us <= b.start_us then
                Alcotest.(check bool)
                  (Printf.sprintf "spans %d and %d nest or are disjoint" a.id
                     b.id)
                  true
                  (b.start_us >= a.stop_us || b.stop_us <= a.stop_us))
            ds)
        ds)
    by_domain

let test_trace_chrome_export () =
  let data = random_data ~n:500 () in
  Obs.Trace.clear ();
  ignore
    (Engine.eval
       (Engine.Parallel { domains = 2; inner = Engine.Sweep })
       Monoid.count (count_data data));
  let json = Obs.Trace.to_chrome_json (Obs.Trace.recorded ()) in
  check_contains "envelope" json "{\"traceEvents\":[";
  check_contains "complete events" json "\"ph\":\"X\"";
  check_contains "thread names" json "\"name\":\"thread_name\"";
  check_contains "shard span" json "\"name\":\"shard\"";
  check_contains "shard attr" json "\"shard\":\"0\"";
  check_contains "parent link" json "\"parent\":";
  Alcotest.(check bool) "closes the envelope" true
    (String.ends_with ~suffix:"]}\n" json);
  (* Clearing discards the previous recording. *)
  Obs.Trace.clear ();
  Alcotest.(check int) "clear empties the ring" 0
    (List.length (Obs.Trace.recorded ()))

(* ------------------------------------------------------------------ *)
(* Flight recorder: ring sink and retention policy                     *)
(* ------------------------------------------------------------------ *)

(* The ring records by default — that is the always-on flight
   recorder; capacity 0 restores the true zero-cost path. *)
let test_trace_ring_always_on () =
  Obs.Trace.clear ();
  Obs.Trace.set_ring_capacity 2048;
  let r = Obs.Trace.with_span ~trace:"ring-t1" "ring-span" (fun () -> 7) in
  Alcotest.(check int) "value passes through" 7 r;
  let mine =
    List.filter
      (fun (s : Obs.Trace.span) -> s.trace = "ring-t1")
      (Obs.Trace.recorded ())
  in
  Alcotest.(check int) "ring holds the span" 1 (List.length mine);
  Alcotest.(check bool) "filtered by trace id" true
    (Obs.Trace.recorded ~trace:"ring-t1" () = mine);
  (* Non-lexical spans: opened on one domain, closed (with outcome
     attrs) wherever the work ends. *)
  let id = Obs.Trace.open_span ~trace:"ring-t1" "open-close" in
  Alcotest.(check bool) "live span id" true (id > 0);
  Obs.Trace.close_span ~attrs:[ ("outcome", "ok") ] id;
  Obs.Trace.close_span id;
  (* double close is a no-op *)
  Obs.Trace.close_span 0;
  (* as is the not-recording sentinel *)
  let oc =
    List.filter
      (fun (s : Obs.Trace.span) -> s.label = "open-close")
      (Obs.Trace.recorded ())
  in
  (match oc with
  | [ s ] ->
      Alcotest.(check bool) "closed" true (s.stop_us >= s.start_us);
      Alcotest.(check string) "inherits nothing, keeps its trace" "ring-t1"
        s.trace;
      Alcotest.(check (list (pair string string)))
        "close attrs appended"
        [ ("outcome", "ok") ]
        s.attrs
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected one open-close span, got %d"
           (List.length other)));
  Obs.Trace.set_ring_capacity 0;
  Alcotest.(check bool) "capacity 0 turns recording off" false
    (Obs.Trace.recording ());
  Alcotest.(check int) "open_span disabled" 0 (Obs.Trace.open_span "nope");
  ignore (Obs.Trace.with_span ~trace:"ring-t2" "nope" (fun () -> ()));
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Obs.Trace.recorded ()));
  Obs.Trace.set_ring_capacity 2048

(* Tail-based retention: a pinned trace survives ring wrap while the
   fast-OK noise that wrapped it is what gets evicted. *)
let test_recorder_tail_retention () =
  Obs.Recorder.clear ();
  Obs.Trace.set_ring_capacity 64;
  Obs.Trace.with_span ~trace:"keep-1" "interesting" (fun () ->
      Obs.Trace.with_span "inner" (fun () -> ()));
  Obs.Recorder.pin ~trace:"keep-1" ~reason:"slow";
  (match Obs.Recorder.find "keep-1" with
  | Some p ->
      Alcotest.(check int) "both spans pinned" 2 (List.length p.p_spans);
      Alcotest.(check string) "reason" "slow" p.p_reason
  | None -> Alcotest.fail "pin must capture the trace");
  (* Re-pinning while the spans are still live replaces the entry. *)
  Obs.Recorder.pin ~trace:"keep-1" ~reason:"error";
  (match Obs.Recorder.find "keep-1" with
  | Some p -> Alcotest.(check string) "last reason wins" "error" p.p_reason
  | None -> Alcotest.fail "re-pin must keep the trace");
  Alcotest.(check int) "replaced, not duplicated" 1
    (List.length
       (List.filter
          (fun (p : Obs.Recorder.pinned) -> p.p_trace = "keep-1")
          (Obs.Recorder.pinned ())));
  (* Flood the ring with fast-OK noise until the trace wraps out... *)
  for i = 1 to 256 do
    Obs.Trace.with_span
      ~trace:(Printf.sprintf "noise-%d" i)
      "fast-ok"
      (fun () -> ())
  done;
  let occupancy, dropped = Obs.Trace.ring_stats () in
  Alcotest.(check int) "ring at capacity" 64 occupancy;
  Alcotest.(check bool) "overwrites counted" true (dropped > 0);
  Alcotest.(check bool) "the ring no longer holds the trace" true
    (List.for_all
       (fun (s : Obs.Trace.span) -> s.trace <> "keep-1")
       (Obs.Trace.recorded ()));
  (* ...but the pinned copy survives and the dump reconstructs it. *)
  (match Obs.Recorder.find "keep-1" with
  | Some p -> Alcotest.(check int) "spans retained" 2 (List.length p.p_spans)
  | None -> Alcotest.fail "pinned trace must survive ring wrap");
  check_contains "dump restricted to the trace"
    (Obs.Recorder.dump ~trace:"keep-1" ())
    "\"trace\":\"keep-1\"";
  (* Pinning a trace the rings never saw is a no-op. *)
  Obs.Recorder.pin ~trace:"absent" ~reason:"slow";
  Alcotest.(check bool) "unknown trace not pinned" true
    (Obs.Recorder.find "absent" = None);
  (* The pinned store itself is bounded, FIFO. *)
  Obs.Recorder.clear ();
  Obs.Recorder.configure ~max_pinned:2 ();
  List.iter
    (fun t ->
      Obs.Trace.with_span ~trace:t "s" (fun () -> ());
      Obs.Recorder.pin ~trace:t ~reason:"slow")
    [ "fifo-1"; "fifo-2"; "fifo-3" ];
  Alcotest.(check bool) "oldest evicted" true
    (Obs.Recorder.find "fifo-1" = None);
  Alcotest.(check bool) "newest kept" true
    (Obs.Recorder.find "fifo-3" <> None);
  Alcotest.(check int) "bounded" 2 (List.length (Obs.Recorder.pinned ()));
  (* Occupancy and pressure fold into the scrape registry. *)
  let r = Obs.Metrics.create () in
  Obs.Recorder.to_metrics r;
  Alcotest.(check (option (float 0.)))
    "pinned gauge" (Some 2.)
    (Obs.Metrics.value r "tempagg_recorder_pinned_traces");
  Alcotest.(check bool) "drop counter exposed" true
    (match Obs.Metrics.value r "tempagg_recorder_ring_dropped_total" with
    | Some v -> v > 0.
    | None -> false);
  check_contains "SHOW RECORDER summary" (Obs.Recorder.summary ()) "pinned=2/2";
  check_contains "SHOW TRACE status" (Obs.Recorder.trace_status ())
    "ring-capacity=64";
  Obs.Recorder.configure ~max_pinned:64 ();
  Obs.Recorder.clear ();
  Obs.Trace.set_ring_capacity 2048

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r ~help:"h" "c_total" in
  Obs.Metrics.inc c;
  Obs.Metrics.add c 2.5;
  Alcotest.(check (float 0.)) "counter" 3.5 (Obs.Metrics.counter_value c);
  (* Re-registration returns the same cell (adapters refresh in place). *)
  let c' = Obs.Metrics.counter r "c_total" in
  Obs.Metrics.inc c';
  Alcotest.(check (float 0.)) "same cell" 4.5 (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "negative add raises" true
    (match Obs.Metrics.add c (-1.) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "kind clash raises" true
    (match Obs.Metrics.gauge r "c_total" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "bad name raises" true
    (match Obs.Metrics.counter r "not a name" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let g = Obs.Metrics.gauge r ~labels:[ ("k", "v") ] "g" in
  Obs.Metrics.set_int g 7;
  Alcotest.(check (option (float 0.)))
    "value lookup" (Some 7.)
    (Obs.Metrics.value r ~labels:[ ("k", "v") ] "g");
  Alcotest.(check (option (float 0.)))
    "missing lookup" None (Obs.Metrics.value r "nope")

let test_metrics_exposition_golden () =
  let r = Obs.Metrics.create () in
  let selects =
    Obs.Metrics.counter r ~help:"Requests served"
      ~labels:[ ("kind", "select") ]
      "app_requests_total"
  in
  Obs.Metrics.inc selects;
  Obs.Metrics.inc selects;
  Obs.Metrics.inc selects;
  Obs.Metrics.inc
    (Obs.Metrics.counter r ~help:"Requests served"
       ~labels:[ ("kind", "delete") ]
       "app_requests_total");
  Obs.Metrics.set (Obs.Metrics.gauge r ~help:"Queue depth" "app_queue_depth") 7.;
  let expected =
    String.concat "\n"
      [
        "# HELP app_queue_depth Queue depth";
        "# TYPE app_queue_depth gauge";
        "app_queue_depth 7";
        "# HELP app_requests_total Requests served";
        "# TYPE app_requests_total counter";
        "app_requests_total{kind=\"delete\"} 1";
        "app_requests_total{kind=\"select\"} 3";
        "";
      ]
  in
  Alcotest.(check string) "golden exposition" expected (Obs.Metrics.expose r)

let test_metrics_histogram_exposition () =
  let r = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram r ~help:"Latency" "lat_us" in
  List.iter (Obs.Histogram.observe h) [ 3.; 100.; 250_000. ];
  let text = Obs.Metrics.expose r in
  check_contains "type line" text "# TYPE lat_us histogram";
  check_contains "+Inf bucket" text "lat_us_bucket{le=\"+Inf\"} 3";
  check_contains "count" text "lat_us_count 3";
  check_contains "sum" text "lat_us_sum 250103";
  (* Bucket counts must be cumulative: extract the trailing integer of
     every _bucket line and check it never decreases. *)
  let counts =
    List.filter_map
      (fun line ->
        if contains line "lat_us_bucket" then
          int_of_string_opt
            (String.sub line
               (String.rindex line ' ' + 1)
               (String.length line - String.rindex line ' ' - 1))
        else None)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "at least three bucket lines" true
    (List.length counts >= 3);
  ignore
    (List.fold_left
       (fun prev c ->
         Alcotest.(check bool) "cumulative" true (c >= prev);
         c)
       0 counts)

(* Prometheus family semantics: HELP and TYPE belong to the metric name
   (the family), not to one label set.  Exposition must emit each once
   even when several label sets registered separately — and with the
   help string attached to only some of them — and a second label set
   cannot re-register the family under a different kind. *)
let test_metrics_family_semantics () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.inc (Obs.Metrics.counter r ~labels:[ ("kind", "a") ] "fam_total");
  Obs.Metrics.inc
    (Obs.Metrics.counter r ~help:"Family help"
       ~labels:[ ("kind", "b") ]
       "fam_total");
  Obs.Metrics.inc (Obs.Metrics.counter r ~labels:[ ("kind", "c") ] "fam_total");
  let text = Obs.Metrics.expose r in
  let count_lines needle =
    List.length
      (List.filter (fun l -> contains l needle) (String.split_on_char '\n' text))
  in
  Alcotest.(check int) "one HELP line" 1 (count_lines "# HELP fam_total");
  Alcotest.(check int) "one TYPE line" 1 (count_lines "# TYPE fam_total");
  check_contains "family help from any label set" text
    "# HELP fam_total Family help";
  Alcotest.(check int) "all three samples" 3 (count_lines "fam_total{kind=");
  Alcotest.(check bool) "cross-label kind clash raises" true
    (match Obs.Metrics.gauge r ~labels:[ ("kind", "d") ] "fam_total" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* [write_file] publishes the exposition with a temp-file-plus-rename,
   so a scraper reading the path concurrently sees either the previous
   complete exposition or the new one — never a torn write. *)
let test_metrics_write_file_atomic () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.set (Obs.Metrics.gauge r ~help:"Queue depth" "app_queue_depth") 7.;
  let expected = Obs.Metrics.expose r in
  let path = Filename.temp_file "tempagg-metrics" ".prom" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () ->
      Obs.Metrics.write_file r path;
      let stop = Atomic.make false in
      let reader =
        Domain.spawn (fun () ->
            let reads = ref 0 and torn = ref 0 in
            while not (Atomic.get stop) do
              let ic = open_in_bin path in
              let text = really_input_string ic (in_channel_length ic) in
              close_in ic;
              incr reads;
              if text <> expected then incr torn
            done;
            (!reads, !torn))
      in
      for _ = 1 to 500 do
        Obs.Metrics.write_file r path
      done;
      Atomic.set stop true;
      let reads, torn = Domain.join reader in
      Alcotest.(check bool) "reader sampled the file" true (reads > 0);
      Alcotest.(check int) "no torn read" 0 torn)

let test_build_info_metrics () =
  let r = Obs.Metrics.create () in
  Obs.Build_info.to_metrics r;
  let text = Obs.Metrics.expose r in
  check_contains "identity gauge" text
    (Printf.sprintf "tempagg_build_info{version=\"%s\"} 1"
       Obs.Build_info.version);
  check_contains "uptime gauge" text "tempagg_uptime_seconds";
  Alcotest.(check bool) "uptime is non-negative" true
    (Obs.Build_info.uptime_seconds () >= 0.);
  (* Refreshing folds in place: still one sample per scrape. *)
  Obs.Build_info.to_metrics r;
  Alcotest.(check int) "one build_info sample" 1
    (List.length
       (List.filter
          (fun l -> contains l "tempagg_build_info{")
          (String.split_on_char '\n' (Obs.Metrics.expose r))))

(* ------------------------------------------------------------------ *)
(* SLO objectives                                                      *)
(* ------------------------------------------------------------------ *)

let test_slo_parse () =
  (match
     Obs.Slo.parse
       "api error_ratio < 0.01 over 1h fast 5m kind select\n\
        # a comment line\n\
        -- another comment\n\n\
        lat p99 < 50ms over 5m fast 1m"
   with
  | Ok [ o1; o2 ] ->
      Alcotest.(check string) "name" "api" o1.Obs.Slo.o_name;
      Alcotest.(check bool) "target" true
        (o1.Obs.Slo.o_target = Obs.Slo.Error_ratio);
      Alcotest.(check (float 0.)) "threshold" 0.01 o1.Obs.Slo.o_threshold;
      Alcotest.(check int) "slow window in us" 3_600_000_000
        o1.Obs.Slo.o_window_us;
      Alcotest.(check int) "fast window in us" 300_000_000
        o1.Obs.Slo.o_fast_us;
      Alcotest.(check (option string)) "kind" (Some "select")
        o1.Obs.Slo.o_kind;
      Alcotest.(check bool) "p99 target" true
        (o2.Obs.Slo.o_target = Obs.Slo.Latency_p 0.99);
      Alcotest.(check (float 0.)) "latency threshold in us" 50_000.
        o2.Obs.Slo.o_threshold
  | Ok os -> Alcotest.failf "expected 2 objectives, got %d" (List.length os)
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  let rejected text =
    match Obs.Slo.parse text with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "duplicate names rejected" true
    (rejected "a error_ratio < 0.1 over 1m fast 1m\n\
               a error_ratio < 0.2 over 1m fast 1m");
  Alcotest.(check bool) "unknown target rejected" true
    (rejected "a p95 < 1ms over 1m fast 1m");
  Alcotest.(check bool) "fast wider than slow rejected" true
    (rejected "a error_ratio < 0.1 over 1m fast 2m")

(* The compiled queries must follow the TSQL grammar: DURING sits
   between FROM and WHERE, and the kind filter rides the WHERE. *)
let test_slo_queries () =
  match
    Obs.Slo.parse "api error_ratio < 0.01 over 1h fast 5m kind select"
  with
  | Ok [ o ] -> (
      let primary, denominator = Obs.Slo.queries ~window:(5, 9) o in
      Alcotest.(check string) "numerator"
        "SELECT SUM(rate) FROM _requests DURING [5,9] WHERE outcome = \
         'error' AND kind = 'select'"
        primary;
      match denominator with
      | Some d ->
          Alcotest.(check string) "denominator"
            "SELECT SUM(rate) FROM _requests DURING [5,9] WHERE outcome = \
             'ok' AND kind = 'select'"
            d
      | None -> Alcotest.fail "error_ratio needs a denominator query")
  | _ -> Alcotest.fail "parse failed"

(* A regression confined to the fast window: slow burn stays under 1,
   fast burn crosses it — exactly one window burning is a warning.
   Every integral is checkable by hand from the two constant rows. *)
let test_slo_warning_oracle () =
  let source =
    {
      Obs.Slo.query =
        (fun q ->
          let is_sub needle =
            let lh = String.length q and ln = String.length needle in
            let rec go i =
              i + ln <= lh && (String.sub q i ln = needle || go (i + 1))
            in
            go 0
          in
          if is_sub "'error'" then
            (* errors only over the last 2 of 10 seconds *)
            Ok
              [
                {
                  Obs.Slo.row_start = 8_000_000;
                  row_stop = 10_000_000;
                  row_value = 1.;
                };
              ]
          else
            Ok
              [
                {
                  Obs.Slo.row_start = 0;
                  row_stop = 10_000_000;
                  row_value = 1.;
                };
              ]);
    }
  in
  match Obs.Slo.parse "api error_ratio < 0.5 over 10s fast 2s" with
  | Ok objectives -> (
      match Obs.Slo.evaluate ~now_us:10_000_000 source objectives with
      | Ok { Obs.Slo.r_evaluations = [ ev ]; _ } ->
          (* slow: 2s of errors over 10s of oks = 0.2; burn 0.4.
             fast: 2s of errors over 2s of oks = 1.0; burn 2.0. *)
          Alcotest.(check (float 1e-9)) "slow observed" 0.2
            ev.Obs.Slo.e_observed_slow;
          Alcotest.(check (float 1e-9)) "fast observed" 1.
            ev.Obs.Slo.e_observed_fast;
          Alcotest.(check (float 1e-9)) "slow burn" 0.4 ev.Obs.Slo.e_slow;
          Alcotest.(check (float 1e-9)) "fast burn" 2. ev.Obs.Slo.e_fast;
          Alcotest.(check string) "one window burning warns" "warning"
            (Obs.Slo.verdict_to_string ev.Obs.Slo.e_verdict);
          (* The worst fast-width window is the troubled edge. *)
          (match ev.Obs.Slo.e_worst with
          | w :: _ ->
              Alcotest.(check int) "worst window start" 8_000_000
                w.Obs.Slo.wb_start;
              Alcotest.(check (float 1e-9)) "worst window burn" 2.
                w.Obs.Slo.wb_burn
          | [] -> Alcotest.fail "worst windows must not be empty");
          Alcotest.(check int) "warning is an alert" 1
            (List.length (Obs.Slo.alerts { Obs.Slo.r_now_us = 10_000_000;
                                           r_evaluations = [ ev ] }))
      | Ok _ -> Alcotest.fail "expected one evaluation"
      | Error msg -> Alcotest.failf "evaluate failed: %s" msg)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Slowlog: join strategy and request id                               *)
(* ------------------------------------------------------------------ *)

let test_slowlog_join_trace_fields () =
  let log = Obs.Slowlog.create ~threshold_ms:0. () in
  ignore
    (Obs.Slowlog.observe log ~kind:"select"
       ~statement:"SELECT COUNT(*) FROM a JOIN b ON a.vt OVERLAPS b.vt"
       ~elapsed_ms:12.5
       ~join:"sweep-join -> nested-loop-join (fallback)" ~trace:"r3-1" ());
  ignore
    (Obs.Slowlog.observe log ~kind:"select" ~statement:"SELECT 1"
       ~elapsed_ms:1.0 ());
  (match Obs.Slowlog.entries log with
  | [ plain; joined ] ->
      Alcotest.(check (option string))
        "strategy and fallback recorded"
        (Some "sweep-join -> nested-loop-join (fallback)")
        joined.Obs.Slowlog.join;
      Alcotest.(check (option string))
        "request id recorded" (Some "r3-1") joined.Obs.Slowlog.trace;
      Alcotest.(check (option string))
        "absent stays None" None plain.Obs.Slowlog.join
  | other ->
      Alcotest.fail (Printf.sprintf "expected 2 entries, got %d" (List.length other)));
  let json = Obs.Slowlog.to_json log in
  check_contains "join in json" json
    "\"join\": \"sweep-join -> nested-loop-join (fallback)\"";
  check_contains "trace in json" json "\"trace\": \"r3-1\"";
  check_contains "null when absent" json "\"join\": null"

(* ------------------------------------------------------------------ *)
(* Adapters                                                            *)
(* ------------------------------------------------------------------ *)

let test_adapters () =
  let r = Obs.Metrics.create () in
  (* Engine instrumentation. *)
  let inst = Instrument.create () in
  for _ = 1 to 5 do
    Instrument.alloc inst
  done;
  Instrument.free inst;
  Instrument.snapshot_to_metrics r (Instrument.snapshot inst);
  Alcotest.(check (option (float 0.)))
    "allocated nodes" (Some 5.)
    (Obs.Metrics.value r "tempagg_engine_allocated_nodes");
  Alcotest.(check (option (float 0.)))
    "peak live" (Some 5.)
    (Obs.Metrics.value r "tempagg_engine_peak_live_nodes");
  (* Storage I/O counters, refreshed in place on a second fold. *)
  let io = Storage.Io_stats.create () in
  Storage.Io_stats.read_page io;
  Storage.Io_stats.read_page io;
  Storage.Io_stats.retry io;
  Storage.Io_stats.to_metrics r io;
  Storage.Io_stats.read_page io;
  Storage.Io_stats.to_metrics r io;
  Alcotest.(check (option (float 0.)))
    "pages read refreshes" (Some 3.)
    (Obs.Metrics.value r "tempagg_io_pages_read");
  Alcotest.(check (option (float 0.)))
    "retries" (Some 1.)
    (Obs.Metrics.value r "tempagg_io_retries");
  (* Live view counters. *)
  Live.Stats.to_metrics r (Live.Stats.create ());
  check_contains "live gauges exposed" (Obs.Metrics.expose r) "tempagg_live_";
  (* Degradation events count by stage. *)
  Engine.degradations_to_metrics r
    [
      { Engine.stage = "eval"; reason = "a"; action = "retry" };
      { Engine.stage = "eval"; reason = "b"; action = "retry" };
      { Engine.stage = "shard 1"; reason = "c"; action = "inline" };
    ];
  Alcotest.(check (option (float 0.)))
    "eval degradations" (Some 2.)
    (Obs.Metrics.value r
       ~labels:[ ("stage", "eval") ]
       "tempagg_degradations_total")

(* ------------------------------------------------------------------ *)
(* Profiles: what the spans record and how they render                 *)
(* ------------------------------------------------------------------ *)

(* Run [f] under a root span of its own trace, on an emptied ring; the
   result and every span the run recorded. *)
let traced_run trace f =
  Obs.Trace.clear ();
  let root = ref 0 in
  let result =
    Obs.Trace.with_span ~trace "test-root" (fun () ->
        root := Option.get (Obs.Trace.current ());
        f ())
  in
  (result, !root, Obs.Trace.recorded ~trace ())

let attr name (s : Obs.Trace.span) = List.assoc_opt name s.attrs
let int_attr name s = Option.map int_of_string (attr name s)

let labelled label spans =
  List.filter (fun (s : Obs.Trace.span) -> s.label = label) spans

let children_of spans (p : Obs.Trace.span) =
  List.filter (fun (s : Obs.Trace.span) -> s.parent = Some p.id) spans

(* A k=1 tree over random input violates the order check, so the chain
   retries with doubled k and finally concedes to the aggregation tree.
   Every aborted attempt must keep its outcome and, on its eval span,
   its memory figures. *)
let test_profile_covers_aborted_attempts () =
  let data = random_data () in
  let result, root, spans =
    traced_run "aborted-attempts" (fun () ->
        Engine.eval_robust (Engine.Korder_tree { k = 1 }) Monoid.count
          (count_data data))
  in
  (match result with
  | Ok (_, degradations) ->
      Alcotest.(check bool) "degraded" true (degradations <> [])
  | Error e -> Alcotest.fail (Engine.error_to_string e));
  let attempts = labelled "attempt" spans in
  Alcotest.(check bool) "several attempts" true (List.length attempts >= 2);
  let ok a = attr "outcome" a = Some "ok" in
  Alcotest.(check bool) "every attempt has an outcome" true
    (List.for_all (fun a -> attr "outcome" a <> None) attempts);
  Alcotest.(check bool) "the last attempt succeeded" true
    (ok (List.nth attempts (List.length attempts - 1)));
  List.iter
    (fun a ->
      match labelled "eval" (children_of spans a) with
      | [ e ] ->
          Alcotest.(check bool) "allocated_nodes kept" true
            (int_attr "allocated_nodes" e <> None);
          Alcotest.(check bool) "peak_bytes kept" true
            (int_attr "peak_bytes" e <> None)
      | es -> Alcotest.failf "attempt with %d eval spans" (List.length es))
    attempts;
  Alcotest.(check bool) "an aborted attempt's allocations survive" true
    (List.exists
       (fun a ->
         (not (ok a))
         && List.exists
              (fun e -> Option.value (int_attr "allocated_nodes" e) ~default:0 > 0)
              (labelled "eval" (children_of spans a)))
       attempts);
  let text = Obs.Trace.tree_to_string ~root spans in
  check_contains "attempt line" text "attempt algorithm=ktree(1) outcome=";
  check_contains "eval figures" text "allocated_nodes=";
  check_contains "final outcome" text "outcome=ok"

(* On a clean single-attempt run the eval span's figures must equal
   what eval_with_stats reports for the same evaluation, exactly.  The
   sweep case runs at the acceptance scale (100k tuples). *)
let test_profile_peak_bytes_exact () =
  List.iter
    (fun (n, algorithm) ->
      let data = random_data ~n ~seed:4 () in
      let result, _, spans =
        traced_run ("exact-" ^ Engine.name algorithm) (fun () ->
            Engine.eval_robust algorithm Monoid.count (count_data data))
      in
      (match result with
      | Ok (_, []) -> ()
      | Ok (_, _ :: _) -> Alcotest.fail "unexpected degradation"
      | Error e -> Alcotest.fail (Engine.error_to_string e));
      let eval =
        match labelled "eval" spans with
        | [ e ] -> e
        | es -> Alcotest.failf "%d eval spans" (List.length es)
      in
      let _, stats =
        Engine.eval_with_stats algorithm Monoid.count (count_data data)
      in
      Alcotest.(check (option int))
        (Engine.name algorithm ^ " peak bytes")
        (Some stats.Instrument.peak_bytes)
        (int_attr "peak_bytes" eval);
      Alcotest.(check (option int))
        (Engine.name algorithm ^ " allocated")
        (Some stats.Instrument.allocated)
        (int_attr "allocated_nodes" eval))
    [ (100_000, Engine.Sweep); (3000, Engine.Aggregation_tree) ]

let span ?parent ?(attrs = []) id start stop label =
  {
    Obs.Trace.id;
    parent;
    label;
    trace = "t";
    domain = 0;
    start_us = start;
    stop_us = stop;
    attrs;
  }

(* The one renderer: durations are the spans' own, children sit under
   their parent in start order, and only the root's own tree is shown. *)
let test_profile_report_fields () =
  let spans =
    [
      span 3 ~parent:1 1500 2500 "eval"
        ~attrs:[ ("allocated_nodes", "12"); ("peak_bytes", "192") ];
      span 1 0 2500 "explain-analyze";
      span 2 ~parent:1 1000 1500 "plan"
        ~attrs:[ ("algorithm", "sweep"); ("rationale", "COUNT is invertible") ];
      span 4 ~parent:3 1600 2400 "shard" ~attrs:[ ("shard", "0") ];
      span 9 5000 6000 "other";
    ]
  in
  Alcotest.(check string) "rooted tree"
    "    2.500 ms  explain-analyze\n\
    \    0.500 ms    plan algorithm=sweep rationale=\"COUNT is invertible\"\n\
    \    1.000 ms    eval allocated_nodes=12 peak_bytes=192\n\
    \    0.800 ms      shard shard=0\n"
    (Obs.Trace.tree_to_string ~root:1 spans)

(* The engine gauges fold only the outermost evals: a shard's eval and
   an eval re-run inside another eval were absorbed by the enclosing
   instrument.  The largest peak wins, over its own algorithm's node
   size. *)
let test_snapshot_of_spans () =
  let eval ?parent id algorithm allocated peak =
    span ?parent id 0 1 "eval"
      ~attrs:
        [ ("algorithm", algorithm); ("allocated_nodes", string_of_int allocated);
          ("peak_bytes", string_of_int peak) ]
  in
  let spans =
    [
      span 1 0 9 "attempt";
      eval ~parent:1 2 "balanced-tree" 50 1000;
      span 3 0 9 "attempt";
      eval ~parent:3 4 "parallel(2,ktree(0))" 30 480;
      span ~parent:4 5 0 1 "shard";
      eval ~parent:5 6 "ktree(0)" 7 112;
      eval ~parent:4 7 "aggregation-tree" 23 368;
    ]
  in
  let s = Engine.snapshot_of_spans spans in
  Alcotest.(check int) "allocations of the two attempts" 80
    s.Instrument.allocated;
  Alcotest.(check int) "largest peak" 1000 s.Instrument.peak_bytes;
  Alcotest.(check int) "its node size" 20 s.Instrument.node_bytes;
  Alcotest.(check int) "its live nodes" 50 s.Instrument.peak_live;
  Alcotest.(check int) "nothing recorded" 0
    (Engine.snapshot_of_spans []).Instrument.allocated

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE and the server's per-kind metrics                   *)
(* ------------------------------------------------------------------ *)

let test_explain_analyze () =
  (match Tsql.Parser.parse_statement "EXPLAIN ANALYZE SELECT COUNT(Name) FROM Employed" with
  | Ok (Tsql.Ast.Explain_analyze _ as stmt) ->
      Alcotest.(check string) "roundtrip"
        "EXPLAIN ANALYZE SELECT COUNT(Name) FROM Employed"
        (Tsql.Ast.statement_to_string stmt)
  | Ok other ->
      Alcotest.fail ("parsed to " ^ Tsql.Ast.statement_to_string other)
  | Error msg -> Alcotest.fail msg);
  let s = Tsql.Session.create (Tsql.Catalog.with_builtins ()) in
  (match Tsql.Session.exec s "EXPLAIN ANALYZE SELECT COUNT(Name) FROM Employed" with
  | Ok (Tsql.Session.Ack report) ->
      List.iter
        (fun needle -> check_contains "profile report" report needle)
        [ "scan Employed"; "why:"; "stats:"; "spans:"; "explain-analyze";
          "eval algorithm="; "allocated_nodes="; "output:"; "total:" ]
  | Ok (Tsql.Session.Rows _) -> Alcotest.fail "expected an Ack"
  | Error msg -> Alcotest.fail msg);
  (* Views answer from materialized timelines, so there is nothing to
     profile: EXPLAIN ANALYZE on one must say so. *)
  (match
     Tsql.Session.exec s
       "CREATE VIEW ea AS SELECT COUNT(Name) FROM Employed GROUP BY INSTANT"
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  match Tsql.Session.exec s "EXPLAIN ANALYZE SELECT COUNT(*) FROM ea" with
  | Ok _ -> Alcotest.fail "EXPLAIN ANALYZE on a view should fail"
  | Error msg -> check_contains "view error" msg "is a view"

(* The lines of an EXPLAIN ANALYZE span tree whose span is [label]. *)
let span_lines label report =
  List.filter
    (fun line ->
      match String.index_opt line 'm' with
      | Some i when String.length line > i + 3 && String.sub line i 3 = "ms " ->
          let rest = String.trim (String.sub line (i + 3) (String.length line - i - 3)) in
          rest = label || String.starts_with ~prefix:(label ^ " ") rest
      | _ -> false)
    (String.split_on_char '\n' report)

(* Everything the deleted profile carried, now read off the statement's
   spans: a k-ordered tree at k=0 over Employed (not time-ordered)
   aborts, and FALLBACK retries it at k=1. *)
let check_fallback_report report =
  List.iter
    (check_contains "plan text" report)
    [ "using ktree(0) (on error: fallback)"; "why:"; "stats:";
      "output: 7 segment(s)"; "total:"; "degradations:";
      "ktree(0): input not k-ordered" ];
  Alcotest.(check bool) "no span of the run lost" false
    (contains report "dropped (ring full)");
  Alcotest.(check int) "one plan line" 1 (List.length (span_lines "plan" report));
  Alcotest.(check int) "one scan line" 1 (List.length (span_lines "scan" report));
  (match span_lines "attempt" report with
  | [ first; second ] ->
      check_contains "first attempt outcome" first "outcome=";
      Alcotest.(check bool) "first attempt failed" false
        (contains first "outcome=ok");
      check_contains "second attempt succeeded" second "outcome=ok"
  | lines -> Alcotest.failf "%d attempt lines in:\n%s" (List.length lines) report);
  match span_lines "eval" report with
  | [ _; _ ] as evals ->
      List.iter
        (fun e ->
          check_contains "eval nodes" e "allocated_nodes=";
          check_contains "eval bytes" e "peak_bytes=")
        evals
  | lines -> Alcotest.failf "%d eval lines in:\n%s" (List.length lines) report

let fallback_query =
  "SELECT COUNT(Name) FROM Employed USING ktree(0) ON ERROR FALLBACK"

let test_explain_analyze_spans () =
  let s = Tsql.Session.create (Tsql.Catalog.with_builtins ()) in
  match Tsql.Session.exec s ("EXPLAIN ANALYZE " ^ fallback_query) with
  | Ok (Tsql.Session.Ack report) -> check_fallback_report report
  | Ok (Tsql.Session.Rows _) -> Alcotest.fail "expected an Ack"
  | Error msg -> Alcotest.fail msg

(* With the ring off there are no spans to render, but the plan and the
   answer's size still come back, and the report says why the rest is
   missing. *)
let test_explain_analyze_ring_off () =
  let s = Tsql.Session.create (Tsql.Catalog.with_builtins ()) in
  Obs.Trace.set_ring_capacity 0;
  let reply =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_ring_capacity 2048)
      (fun () -> Tsql.Session.exec s ("EXPLAIN ANALYZE " ^ fallback_query))
  in
  match reply with
  | Ok (Tsql.Session.Ack report) ->
      List.iter
        (check_contains "ring-off report" report)
        [ "using ktree(0) (on error: fallback)"; "spans: none recorded";
          "output: 7 segment(s)" ];
      Alcotest.(check int) "no attempt lines" 0
        (List.length (span_lines "attempt" report))
  | Ok (Tsql.Session.Rows _) -> Alcotest.fail "expected an Ack"
  | Error msg -> Alcotest.fail msg

(* A run that overflows the ring loses its own early spans; the report
   says so instead of passing off a partial tree as whole. *)
let test_explain_analyze_ring_overflow () =
  let s = Tsql.Session.create (Tsql.Catalog.with_builtins ()) in
  Obs.Trace.set_ring_capacity 3;
  let reply =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_ring_capacity 2048)
      (fun () -> Tsql.Session.exec s ("EXPLAIN ANALYZE " ^ fallback_query))
  in
  match reply with
  | Ok (Tsql.Session.Ack report) ->
      List.iter
        (check_contains "overflow report" report)
        [ "using ktree(0) (on error: fallback)"; " dropped (ring full)";
          "output: 7 segment(s)" ]
  | Ok (Tsql.Session.Rows _) -> Alcotest.fail "expected an Ack"
  | Error msg -> Alcotest.fail msg

(* The server's per-kind latency histograms and error counters, read
   mid-run through METRICS (with the asking connection's session
   gauges) and after the drain through the report's per-kind table. *)
let test_serve_metrics () =
  let replies, report =
    Server_harness.run_lines
      [
        "SELECT COUNT(Name) FROM Employed;";
        "SELECT COUNT(Name) FROM Employed;";
        "METRICS";
        "EXPLAIN ANALYZE SELECT COUNT(Name) FROM Employed;";
        "SELECT nope FROM missing;";
        "METRICS";
      ]
  in
  Alcotest.(check int) "ops" 4 report.Net.Server.requests;
  Alcotest.(check int) "errors" 1 report.Net.Server.errors;
  Alcotest.(check int) "explain-analyze counted" 1
    (Obs.Histogram.count (Server_harness.latency report "explain-analyze"));
  let selects = Server_harness.latency report "select" in
  Alcotest.(check bool) "percentiles ordered" true
    (Obs.Histogram.percentile selects 0.5
     <= Obs.Histogram.percentile selects 0.99
    && Obs.Histogram.percentile selects 0.99 <= Obs.Histogram.max_value selects);
  (match replies with
  | [ _; _; first; _; _; last ] ->
      check_contains "latency histogram" (Server_harness.ok_text first)
        "tempagg_net_latency_us";
      let final = Server_harness.ok_text last in
      check_contains "error counter" final
        "tempagg_net_errors_total{kind=\"select\"} 1";
      check_contains "live gauges" final "tempagg_live_"
  | _ -> Alcotest.fail "one reply per line");
  let text = Net.Server.report_to_string report in
  check_contains "report header" text "4 request(s)";
  check_contains "report error count" text "1 error(s)";
  check_contains "report kind row" text "explain-analyze"

(* ------------------------------------------------------------------ *)
(* Overhead                                                            *)
(* ------------------------------------------------------------------ *)

(* Tracing on the sweep hot path, with the always-on ring at its
   default capacity, is one span check and one ring append per eval:
   Engine.eval through it must stay within 3% of calling Sweep.eval
   directly.  Paired rounds with a shared rep count cancel GC drift, and
   the rounds alternate which side runs first, so drift within a round
   (a neighbour's load ramping up or down) lands on both sides alike;
   the bar is checked on the best of three tries so one noisy CI
   neighbour cannot fail the suite, but a real regression (a per-tuple
   span, say) fails all three. *)
let test_disarmed_overhead () =
  Obs.Trace.set_ring_capacity 2048;
  let data = random_data ~n:4096 ~seed:2 () in
  let bare () = Sweep.eval Monoid.count (count_data data) in
  let routed () = Engine.eval Engine.Sweep Monoid.count (count_data data) in
  let calibrate f =
    let rec go reps =
      let t0 = Sys.time () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done;
      if Sys.time () -. t0 >= 0.05 || reps >= 4096 then reps else go (reps * 2)
    in
    go 1
  in
  let timed reps f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    Sys.time () -. t0
  in
  let median_ratio () =
    let reps = calibrate bare in
    let rounds = 11 in
    let ratios =
      Array.init rounds (fun round ->
          Gc.compact ();
          if round mod 2 = 0 then
            let tb = timed reps bare in
            let tr = timed reps routed in
            tr /. tb
          else
            let tr = timed reps routed in
            let tb = timed reps bare in
            tr /. tb)
    in
    Array.sort compare ratios;
    ratios.(rounds / 2)
  in
  let rec attempt tries best =
    let r = median_ratio () in
    let best = Float.min best r in
    if best < 1.03 then best
    else if tries > 1 then attempt (tries - 1) best
    else best
  in
  let best = attempt 3 infinity in
  if best >= 1.03 then
    Alcotest.fail
      (Printf.sprintf
         "disarmed tracing costs %.1f%% on the sweep hot path (bar: <3%%)"
         ((best -. 1.) *. 100.))

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "vs sorted-array oracle" `Quick
            test_histogram_oracle;
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "merge vs sorted-array oracle" `Quick
            test_histogram_merge_oracle;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disarmed passthrough" `Quick
            test_trace_disarmed_passthrough;
          Alcotest.test_case "parallel span tree" `Quick
            test_trace_parallel_span_tree;
          Alcotest.test_case "exited domains retired" `Quick
            test_trace_exited_domains_retired;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring always on" `Quick test_trace_ring_always_on;
          Alcotest.test_case "tail retention" `Quick
            test_recorder_tail_retention;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "exposition golden" `Quick
            test_metrics_exposition_golden;
          Alcotest.test_case "histogram exposition" `Quick
            test_metrics_histogram_exposition;
          Alcotest.test_case "family semantics" `Quick
            test_metrics_family_semantics;
          Alcotest.test_case "write_file is atomic" `Quick
            test_metrics_write_file_atomic;
          Alcotest.test_case "build info" `Quick test_build_info_metrics;
          Alcotest.test_case "adapters" `Quick test_adapters;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse" `Quick test_slo_parse;
          Alcotest.test_case "query compilation" `Quick test_slo_queries;
          Alcotest.test_case "warning matches the hand oracle" `Quick
            test_slo_warning_oracle;
        ] );
      ( "slowlog",
        [
          Alcotest.test_case "join and trace fields" `Quick
            test_slowlog_join_trace_fields;
        ] );
      ( "profile",
        [
          Alcotest.test_case "covers aborted attempts" `Quick
            test_profile_covers_aborted_attempts;
          Alcotest.test_case "peak bytes exact" `Quick
            test_profile_peak_bytes_exact;
          Alcotest.test_case "report fields" `Quick test_profile_report_fields;
          Alcotest.test_case "engine gauges from spans" `Quick
            test_snapshot_of_spans;
        ] );
      ( "tsql",
        [
          Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
          Alcotest.test_case "explain analyze from spans" `Quick
            test_explain_analyze_spans;
          Alcotest.test_case "explain analyze, ring off" `Quick
            test_explain_analyze_ring_off;
          Alcotest.test_case "explain analyze, ring overflow" `Quick
            test_explain_analyze_ring_overflow;
          Alcotest.test_case "serve metrics" `Quick test_serve_metrics;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disarmed tracing < 3%" `Slow
            test_disarmed_overhead;
        ] );
    ]
