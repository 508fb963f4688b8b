(* Smoke test for the benchmark harness: the sweep section must run end
   to end at a small size, and --csv must create nested output
   directories (Sys.mkdir is not recursive; save_csv's mkdir_p is). *)

(* The bench binary sits next to this test in the build tree:
   _build/default/{test/test_bench_smoke.exe, bench/main.exe}. *)
let bench =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bench" "main.exe")

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let run args =
  let out = Filename.temp_file "tempagg_bench" ".out" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists out then Sys.remove out)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1" bench
          (String.concat " " (List.map Filename.quote args))
          out
      in
      let code = Sys.command cmd in
      (code, In_channel.with_open_text out In_channel.input_all))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_sweep_section () =
  let dir = Filename.temp_file "tempagg_bench" "" in
  Sys.remove dir;
  (* Two levels below a directory that does not exist yet: the exact
     shape that crashed the old non-recursive save_csv. *)
  let csv_dir = Filename.concat (Filename.concat dir "nested") "sub" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let code, out =
        run
          [
            "--sections"; "sweep"; "--max-size"; "512"; "--repeats"; "1";
            "--csv"; csv_dir;
          ]
      in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "prints the sweep banner" true
        (contains out "sweep:");
      Alcotest.(check bool) "prints domain scaling" true
        (contains out "domain scaling at n = 512");
      let csv = Filename.concat csv_dir "sweep.csv" in
      Alcotest.(check bool) "csv written under nested dirs" true
        (Sys.file_exists csv);
      let contents = In_channel.with_open_text csv In_channel.input_all in
      Alcotest.(check bool) "csv mentions the sweep series" true
        (contains contents "sweep (count)"))

let test_live_section_json () =
  let dir = Filename.temp_file "tempagg_bench" "" in
  Sys.remove dir;
  (* Nested path again: write_json must create the directories. *)
  let json = Filename.concat (Filename.concat dir "out") "BENCH_results.json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let code, out = run [ "--smoke"; "--sections"; "live"; "--json"; json ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "prints the live banner" true
        (contains out "live:");
      Alcotest.(check bool) "prints the headline ratio" true
        (contains out "headline (1% writes");
      Alcotest.(check bool) "json written" true (Sys.file_exists json);
      let contents = In_channel.with_open_text json In_channel.input_all in
      (* Superficial JSON shape: run-identity metadata followed by an
         array of flat records carrying the fields the CI artifact
         consumers key on. *)
      Alcotest.(check bool) "object with meta and results" true
        (String.length contents > 2
        && contents.[0] = '{'
        && String.ends_with ~suffix:"]}\n" contents);
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains contents needle))
        [
          "\"meta\": {";
          "\"git_sha\": \"";
          "\"timestamp\": \"";
          "\"smoke\": true";
          "\"results\": [";
          "\"section\": \"live\"";
          "\"algorithm\": \"incremental\"";
          "\"algorithm\": \"reeval\"";
          "\"median_ns\":";
          "\"n\":";
        ];
      (* A results file must compare cleanly against itself: every point
         matches, zero regressions, exit 0. *)
      let code, out =
        run [ "--compare-only"; "--json"; json; "--compare"; json ]
      in
      Alcotest.(check int) "self-compare exit 0" 0 code;
      Alcotest.(check bool) "self-compare finds the points" true
        (contains out "comparable point(s)");
      Alcotest.(check bool) "self-compare is clean" true
        (contains out "0 regression(s)"))

(* The obs section must defend its <3% disarmed-tracing bar and write
   the two observability artifacts next to the --json output: a Chrome
   trace that names the shard timelines and a Prometheus exposition of
   an instrumented run's engine gauges. *)
let test_obs_section_artifacts () =
  let dir = Filename.temp_file "tempagg_bench" "" in
  Sys.remove dir;
  let json = Filename.concat dir "BENCH_results.json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let code, out = run [ "--smoke"; "--sections"; "obs"; "--json"; json ] in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool) "prints the obs banner" true (contains out "obs:");
      Alcotest.(check bool) "prints the tracing-off bar" true
        (contains out "worst tracing-off overhead:");
      Alcotest.(check bool) "prints the recorder bar" true
        (contains out "worst always-on-recorder overhead:");
      let trace = Filename.concat dir "BENCH_trace.json" in
      Alcotest.(check bool) "trace written" true (Sys.file_exists trace);
      let trace_text = In_channel.with_open_text trace In_channel.input_all in
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains trace_text needle))
        [ "{\"traceEvents\":["; "\"ph\":\"X\""; "\"name\":\"shard\"";
          "thread_name" ];
      let metrics = Filename.concat dir "BENCH_metrics.txt" in
      Alcotest.(check bool) "metrics written" true (Sys.file_exists metrics);
      let metrics_text =
        In_channel.with_open_text metrics In_channel.input_all
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains metrics_text needle))
        [ "# TYPE tempagg_engine_peak_bytes gauge"; "tempagg_engine_allocated_nodes" ])

let () =
  Alcotest.run "bench-smoke"
    [
      ( "bench",
        [
          Alcotest.test_case "sweep section + nested csv" `Quick
            test_sweep_section;
          Alcotest.test_case "live section + json records" `Quick
            test_live_section_json;
          Alcotest.test_case "obs section + artifacts" `Slow
            test_obs_section_artifacts;
        ] );
    ]
