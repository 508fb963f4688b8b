(* End-to-end tests of the tempagg command-line tool, driving the built
   binary as a user would. *)

(* The CLI binary sits next to this test in the build tree:
   _build/default/{test/test_cli.exe, bin/tempagg_cli.exe}.  Resolve it
   from the executable's own path so the tests work from any cwd. *)
let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "tempagg_cli.exe")

let temp_out () = Filename.temp_file "tempagg_cli" ".out"

(* Runs the CLI with the given arguments, returning (exit code, stdout). *)
let run args =
  let out = temp_out () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists out then Sys.remove out)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1" cli
          (String.concat " " (List.map Filename.quote args))
          out
      in
      let code = Sys.command cmd in
      (code, In_channel.with_open_text out In_channel.input_all))

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_contains output fragment =
  if not (contains output fragment) then
    Alcotest.fail (Printf.sprintf "output %S lacks %S" output fragment)

(* Occurrences of [needle] in [hay]. *)
let count hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i n =
    if i + ln > lh then n
    else if String.sub hay i ln = needle then go (i + ln) (n + 1)
    else go (i + 1) n
  in
  go 0 0

let with_tempdir f =
  let dir = Filename.temp_file "tempagg_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_query_employed () =
  let code, out = run [ "query"; "SELECT COUNT(Name) FROM Employed" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "| [18,20] |" |> ignore;
  check_contains out "3";
  check_contains out "[22,oo]"

let test_query_error_reported () =
  let code, out = run [ "query"; "SELECT COUNT(*) FROM Nowhere" ] in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  check_contains out "unknown relation"

let test_explain () =
  let code, out = run [ "explain"; "SELECT COUNT(*) FROM Employed" ] in
  Alcotest.(check int) "exit 0" 0 code;
  (* COUNT is invertible, so the optimizer picks the delta-sweep. *)
  check_contains out "sweep";
  (* MIN is not, so it falls back to the aggregation tree; --domains
     wraps the choice in the parallel divide-and-conquer. *)
  let code, out =
    run
      [ "explain"; "--domains"; "2"; "SELECT MIN(Salary) FROM Employed" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "parallel(2,aggregation-tree)"

let test_query_algorithm_override () =
  let code, out =
    run
      [
        "query"; "--algorithm"; "parallel(4,sweep)";
        "SELECT COUNT(Name) FROM Employed";
      ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains out "| [18,20] |";
  check_contains out "[22,oo]"

let test_generate_metrics_roundtrip () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let code, _ =
        run
          [ "generate"; "--tuples"; "200"; "--order"; "k-ordered"; "-k"; "7";
            "--seed"; "3"; "-o"; csv ]
      in
      Alcotest.(check int) "generate ok" 0 code;
      let code, out = run [ "metrics"; csv; "-k"; "7" ] in
      Alcotest.(check int) "metrics ok" 0 code;
      check_contains out "tuples:            200";
      check_contains out "k-orderedness:     7")

let test_convert_extsort_query_pipeline () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let heap = Filename.concat dir "rel.heap" in
      let sorted = Filename.concat dir "rel.sorted.heap" in
      let code, _ =
        run [ "generate"; "--tuples"; "300"; "--seed"; "4"; "-o"; csv ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, out = run [ "convert"; csv; heap ] in
      Alcotest.(check int) "convert" 0 code;
      check_contains out "wrote 300 tuples";
      let code, _ = run [ "extsort"; heap; sorted; "--memory-tuples"; "50" ] in
      Alcotest.(check int) "extsort" 0 code;
      let code, out = run [ "metrics"; sorted ] in
      Alcotest.(check int) "metrics" 0 code;
      check_contains out "time-ordered:      true";
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ sorted;
            "SELECT COUNT(*) FROM jobs DURING [0,100000]" ]
      in
      Alcotest.(check int) "query over heap" 0 code;
      check_contains out "count(*)")

let test_sort_csv () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let out_csv = Filename.concat dir "sorted.csv" in
      let code, _ =
        run [ "generate"; "--tuples"; "100"; "--seed"; "5"; "-o"; csv ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, _ = run [ "sort"; csv; "-o"; out_csv ] in
      Alcotest.(check int) "sort" 0 code;
      let code, out = run [ "metrics"; out_csv ] in
      Alcotest.(check int) "metrics" 0 code;
      check_contains out "k-orderedness:     0")

let test_bad_subcommand () =
  let code, _ = run [ "frobnicate" ] in
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

let test_csv_error_carries_position () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "bad.csv" in
      Out_channel.with_open_text csv (fun oc ->
          output_string oc "name:string,start,stop\nalice,1,2\nbob,oops,9\n");
      let code, out = run [ "metrics"; csv ] in
      Alcotest.(check bool) "nonzero exit" true (code <> 0);
      check_contains out "line 3 (row 2)")

(* Writes a relation whose physical order defeats ktree(1) so the
   recovery flags have something to recover from. *)
let unsorted_csv dir =
  let csv = Filename.concat dir "rel.csv" in
  let code, _ =
    run
      [ "generate"; "--tuples"; "300"; "--order"; "k-ordered"; "-k"; "40";
        "--seed"; "9"; "-o"; csv ]
  in
  Alcotest.(check int) "generate" 0 code;
  csv

let test_on_error_fallback_flag () =
  with_tempdir (fun dir ->
      let csv = unsorted_csv dir in
      let q = "SELECT COUNT(*) FROM jobs" in
      (* Without a policy the hinted algorithm fails loudly... *)
      let code, out =
        run [ "query"; "-r"; "jobs=" ^ csv; "--algorithm"; "ktree(1)"; q ]
      in
      Alcotest.(check bool) "hint fails" true (code <> 0);
      check_contains out "not k-ordered";
      (* ...and with --on-error fallback the query completes, reporting
         every degradation on stderr. *)
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ csv; "--algorithm"; "ktree(1)";
            "--on-error"; "fallback"; q ]
      in
      Alcotest.(check int) "fallback recovers" 0 code;
      check_contains out "degraded:";
      check_contains out "count(*)")

let test_deadline_flag () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let code, _ =
        run [ "generate"; "--tuples"; "20000"; "--seed"; "6"; "-o"; csv ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ csv; "--deadline-ms"; "0.001";
            "SELECT COUNT(*) FROM jobs" ]
      in
      Alcotest.(check bool) "deadline trips" true (code <> 0);
      check_contains out "deadline exceeded")

let test_inject_faults_flags () =
  with_tempdir (fun dir ->
      let csv = Filename.concat dir "rel.csv" in
      let heap = Filename.concat dir "rel.heap" in
      let code, _ =
        run [ "generate"; "--tuples"; "300"; "--seed"; "8"; "-o"; csv ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, _ = run [ "convert"; csv; heap ] in
      Alcotest.(check int) "convert" 0 code;
      let q = "SELECT COUNT(*) FROM jobs" in
      (* Transient faults are retried away without any policy. *)
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ heap; "--inject-faults"; "transient=1.0";
            q ]
      in
      Alcotest.(check int) "transient recovered" 0 code;
      check_contains out "transient read fault";
      (* Persistent corruption fails the checksum... *)
      let code, out =
        run [ "query"; "-r"; "jobs=" ^ heap; "--inject-faults"; "torn=1.0"; q ]
      in
      Alcotest.(check bool) "corruption fatal by default" true (code <> 0);
      check_contains out "failed its checksum";
      (* ...unless the policy says to scan around it. *)
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ heap; "--inject-faults"; "torn=1.0";
            "--on-error"; "skip"; q ]
      in
      Alcotest.(check int) "skip scans around" 0 code;
      check_contains out "corrupt page";
      (* A malformed spec is rejected up front. *)
      let code, out =
        run [ "query"; "-r"; "jobs=" ^ heap; "--inject-faults"; "torn=9"; q ]
      in
      Alcotest.(check bool) "bad spec rejected" true (code <> 0);
      check_contains out "torn")

let test_serve_script () =
  with_tempdir (fun dir ->
      let script = Filename.concat dir "ops.tsql" in
      Out_channel.with_open_text script (fun oc ->
          output_string oc
            "-- live view over the paper's Employed relation\n\
             CREATE VIEW hc AS SELECT COUNT(Name) FROM Employed;\n\
             SELECT * FROM hc DURING [8,20];\n\
             INSERT INTO Employed VALUES ('Zoe', 60000) DURING [12,18];\n\
             SELECT * FROM hc DURING [8,20];\n\
             DELETE FROM Employed WHERE Name = 'Zoe';\n\
             DROP VIEW hc\n\
             SELECT MAX(Salary) FROM Employed;\n\
             METRICS\n");
      let slowlog = Filename.concat dir "slowlog.json" in
      let code, out =
        run [ "serve"; "--script"; script; "--slowlog-out"; slowlog ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      (* Every line is answered: the view's rows before and after the
         write... *)
      check_contains out "| [18,20] |";
      (* ...the live-subsystem counters in the METRICS reply... *)
      check_contains out "tempagg_live_cache";
      (* ...and the closing report aggregates latency per statement
         kind. *)
      check_contains out "7 request(s)";
      check_contains out "select";
      check_contains out "create-view";
      check_contains out "p99-us";
      (* Every entry's profile is its statement's span tree; the
         statements planned against the base relation — a SELECT and a
         CREATE VIEW — show the plan span's choice and rationale. *)
      let entries =
        List.filter
          (fun l -> String.starts_with ~prefix:"  {\"statement\"" l)
          (String.split_on_char '\n'
             (In_channel.with_open_text slowlog In_channel.input_all))
      in
      Alcotest.(check int) "one entry per statement" 7 (List.length entries);
      List.iter
        (fun e ->
          check_contains e "\"profile\": \"";
          check_contains e " ms  request ";
          check_contains e "  execute ")
        entries;
      let planned =
        List.filter
          (fun e ->
            contains e "FROM Employed"
            && (contains e "\"kind\": \"select\""
               || contains e "\"kind\": \"create-view\""))
          entries
      in
      Alcotest.(check int) "the CREATE VIEW and the MAX select" 2
        (List.length planned);
      List.iter
        (fun e ->
          check_contains e "  plan algorithm=";
          check_contains e " rationale=")
        planned)

let test_serve_missing_script () =
  with_tempdir (fun dir ->
      let code, out =
        run [ "serve"; "--script"; Filename.concat dir "nope.tsql" ]
      in
      Alcotest.(check bool) "nonzero exit" true (code <> 0);
      check_contains out "nope.tsql")

(* A line that fails to parse answers ERR, as does a malformed TRACE
   prefix; the next line still runs, and the run fails. *)
let test_serve_parse_error () =
  with_tempdir (fun dir ->
      let script = Filename.concat dir "bad.tsql" in
      Out_channel.with_open_text script (fun oc ->
          output_string oc
            "SELECT FROM ;\n\
             TRACE bad!id SELECT 1\n\
             SELECT COUNT(Name) FROM Employed\n");
      let code, out = run [ "serve"; "--script"; script ] in
      Alcotest.(check bool) "nonzero exit" true (code <> 0);
      check_contains out "ERR ";
      check_contains out "| [18,20] |";
      check_contains out "2 line(s) answered ERR")

(* A missing --data-dir is created with its parents, and over stdin the
   one connection's tables land in DIR itself. *)
let test_serve_data_dir () =
  let base = Filename.temp_dir "tempagg_cli" "" in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote base)))
    (fun () ->
      let script = Filename.concat base "ops.tsql" in
      Out_channel.with_open_text script (fun oc ->
          output_string oc
            "CREATE TABLE t (sensor STRING, value INT) PARTITION BY RANGE \
             (vt) (100, 200);\n\
             INSERT INTO t VALUES ('a', 10) DURING [5,150];\n\
             SELECT COUNT(sensor) FROM t;\n\
             METRICS\n");
      let data = Filename.concat base (Filename.concat "new" "nested") in
      let code, out =
        run [ "serve"; "--script"; script; "--data-dir"; data ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "table at DIR/t" true
        (Storage.Partition.is_partition_dir (Filename.concat data "t"));
      check_contains out "tempagg_partition_shards{relation=\"t\"} 3")

(* The observability flags on query: --profile prints the EXPLAIN
   ANALYZE report, --metrics a Prometheus exposition, --trace a Chrome
   trace file with one complete event per span. *)
let test_query_observability_flags () =
  with_tempdir (fun dir ->
      let trace = Filename.concat dir "trace.json" in
      let code, out =
        run
          [
            "query"; "--profile"; "--metrics"; "--trace"; trace;
            "--algorithm"; "parallel(2,sweep)";
            "SELECT COUNT(Name) FROM Employed";
          ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      (* The result still prints first. *)
      check_contains out "| [18,20] |";
      check_contains out "using parallel(2,sweep)";
      check_contains out "plan algorithm=parallel(2,sweep)";
      check_contains out "eval algorithm=parallel(2,sweep) allocated_nodes=";
      check_contains out "# TYPE tempagg_engine_peak_bytes gauge";
      check_contains out "tempagg_io_pages_read";
      Alcotest.(check bool) "trace file written" true (Sys.file_exists trace);
      let json = In_channel.with_open_text trace In_channel.input_all in
      check_contains json "{\"traceEvents\":[";
      check_contains json "\"name\":\"eval\"";
      check_contains json "\"name\":\"shard\"")

(* query --profile reports what the deleted profile carried, read off
   the run's spans: a k-ordered tree at k=0 aborts on Employed and
   FALLBACK retries it at k=1. *)
let test_query_profile_fallback () =
  let code, out =
    run
      [
        "query"; "--profile";
        "SELECT COUNT(Name) FROM Employed USING ktree(0) ON ERROR FALLBACK";
      ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  List.iter (check_contains out)
    [
      "using ktree(0) (on error: fallback)"; "why:"; "stats:";
      "  plan algorithm=ktree(0)"; "  scan shards=";
      "  attempt algorithm=ktree(0) outcome=\"input not k-ordered";
      "  eval algorithm=ktree(0) allocated_nodes=";
      "  attempt algorithm=ktree(1) outcome=ok";
      "  eval algorithm=ktree(1) allocated_nodes="; "degradations:";
      "output: 7 segment(s)"; "total:";
    ];
  Alcotest.(check int) "two attempts" 2 (count out "  attempt ");
  Alcotest.(check int) "peak bytes on each eval" 2 (count out " peak_bytes=")

(* The --metrics engine gauges of a profiled run count every node once.
   A parallel run whose k-ordered shards fail re-runs each failed shard
   inline with the aggregation tree; that re-run's eval sits inside the
   attempt's eval, whose instrument already absorbed it. *)
let test_query_profile_parallel_gauges () =
  with_tempdir (fun dir ->
      let csv = unsorted_csv dir in
      let code, out =
        run
          [ "query"; "-r"; "jobs=" ^ csv; "--profile"; "--metrics";
            "SELECT COUNT(*) FROM jobs USING parallel(2,ktree(0)) ON ERROR \
             FALLBACK" ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains out "re-evaluated inline with aggregation-tree";
      check_contains out "      eval algorithm=aggregation-tree allocated_nodes=";
      let allocated, peak =
        match
          List.find_opt
            (fun l -> contains l " eval algorithm=parallel(2,ktree(0)) ")
            (String.split_on_char '\n' out)
        with
        | Some l ->
            Scanf.sscanf l " %f ms eval algorithm=%s allocated_nodes=%d \
                            peak_bytes=%d"
              (fun _ _ a p -> (a, p))
        | None -> Alcotest.failf "no outer eval line in %S" out
      in
      Alcotest.(check bool) "the shards allocated" true (allocated > 0);
      check_contains out
        (Printf.sprintf "tempagg_engine_allocated_nodes %d\n" allocated);
      check_contains out (Printf.sprintf "tempagg_engine_peak_bytes %d\n" peak);
      check_contains out
        (Printf.sprintf "tempagg_engine_peak_live_nodes %d\n" (peak / 16)))

(* EXPLAIN ANALYZE under a request id an earlier statement already used
   reports only its own spans, not the earlier statement's. *)
let test_serve_explain_analyze_reused_trace () =
  with_tempdir (fun dir ->
      let script = Filename.concat dir "dup.tsql" in
      Out_channel.with_open_text script (fun oc ->
          output_string oc
            "TRACE dup SELECT COUNT(Name) FROM Employed\n\
             TRACE dup EXPLAIN ANALYZE SELECT COUNT(Name) FROM Employed\n");
      let code, out = run [ "serve"; "--script"; script ] in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains out "trace=dup";
      check_contains out "  explain-analyze";
      Alcotest.(check int) "one plan span" 1 (count out "  plan algorithm=");
      Alcotest.(check int) "one scan span" 1 (count out "  scan shards="))

(* A METRICS line in a script dumps the exposition at that point. *)
let test_serve_metrics_line () =
  with_tempdir (fun dir ->
      let script = Filename.concat dir "ops.tsql" in
      Out_channel.with_open_text script (fun oc ->
          output_string oc
            "SELECT COUNT(Name) FROM Employed;\n\
             EXPLAIN ANALYZE SELECT COUNT(Name) FROM Employed;\n\
             METRICS\n\
             SELECT COUNT(Name) FROM Employed DURING [8,20]\n");
      let code, out = run [ "serve"; "--script"; script ] in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains out
        "tempagg_net_latency_us_bucket{kind=\"explain-analyze\"";
      check_contains out "explain-analyze";
      check_contains out "3 request(s)")

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "cli"
    [
      ( "tempagg",
        [
          quick "query Employed (Table 1)" test_query_employed;
          quick "query error reported" test_query_error_reported;
          quick "explain" test_explain;
          quick "query --algorithm override" test_query_algorithm_override;
          quick "generate + metrics" test_generate_metrics_roundtrip;
          quick "convert + extsort + query pipeline"
            test_convert_extsort_query_pipeline;
          quick "sort csv" test_sort_csv;
          quick "bad subcommand" test_bad_subcommand;
          quick "csv error carries line/row" test_csv_error_carries_position;
          quick "--on-error fallback" test_on_error_fallback_flag;
          quick "--deadline-ms" test_deadline_flag;
          quick "--inject-faults" test_inject_faults_flags;
          quick "serve script" test_serve_script;
          quick "serve missing script" test_serve_missing_script;
          quick "serve parse error" test_serve_parse_error;
          quick "serve --data-dir" test_serve_data_dir;
          quick "query --profile/--metrics/--trace"
            test_query_observability_flags;
          quick "query --profile fallback report" test_query_profile_fallback;
          quick "query --profile parallel gauges"
            test_query_profile_parallel_gauges;
          quick "serve EXPLAIN ANALYZE under a reused TRACE id"
            test_serve_explain_analyze_reused_trace;
          quick "serve METRICS line" test_serve_metrics_line;
        ] );
    ]
