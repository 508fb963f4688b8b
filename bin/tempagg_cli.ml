(* tempagg — command-line front end.

   Subcommands:
     query     run a TSQL2-subset query over CSV relations
     explain   show the evaluation plan without running the query
     serve     serve the line protocol to many TCP clients with admission
               control + graceful drain, or to one connection over
               stdin/stdout (--listen stdin, or --script FILE)
     client    replay a statement script against a running server
     generate  write a synthetic relation (paper Section 6 methodology)
     metrics   report k-orderedness / k-ordered-percentage of a relation
     sort      time-sort a relation CSV

   Relations are CSV files with a [name:type,...,start,stop] header (see
   Relation.Csv_io); `generate` produces them. *)

open Cmdliner

(* CSV or heap file, by extension. *)
let load_relation ?fault ?on_corrupt ?stats path =
  if Filename.check_suffix path ".heap" then begin
    let stats =
      match stats with Some s -> s | None -> Storage.Io_stats.create ()
    in
    match Storage.Heap_file.read_relation ?fault ?on_corrupt ~stats path with
    | rel ->
        (* Recovery is never silent: report retried and skipped pages. *)
        if Storage.Io_stats.retries stats > 0 then
          Printf.eprintf "%s: recovered from %d transient read fault(s)\n%!"
            path
            (Storage.Io_stats.retries stats);
        if Storage.Io_stats.corrupt_pages stats > 0 then
          Printf.eprintf "%s: skipped %d corrupt page(s)\n%!" path
            (Storage.Io_stats.corrupt_pages stats);
        Ok rel
    | exception Invalid_argument msg -> Error (Printf.sprintf "%s: %s" path msg)
    | exception Storage.Heap_file.Corrupt_page { page; _ } ->
        Error
          (Printf.sprintf
             "%s: page %d failed its checksum (re-create the file, or pass \
              --on-error fallback/skip to scan around it)"
             path page)
  end
  else
    match Relation.Csv_io.load path with
    | Ok rel -> Ok rel
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)

let save_relation path rel =
  if Filename.check_suffix path ".heap" then
    Storage.Heap_file.write_relation ~stats:(Storage.Io_stats.create ()) path rel
  else Relation.Csv_io.save path rel

(* Relations are passed as NAME=PATH; a bare PATH is bound to its
   basename without extension. *)
let parse_binding spec =
  match String.index_opt spec '=' with
  | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
  | None -> (Filename.remove_extension (Filename.basename spec), spec)

(* A partition directory binds as a relation with its shard layout
   attached, so the planner can prune shards and pin parallel plans to
   them. *)
let load_partition ?fault ?on_corrupt path =
  match
    let p = Storage.Partition.load ?fault path in
    (p, Storage.Partition.materialize ?on_corrupt p)
  with
  | pair -> Ok pair
  | exception Invalid_argument msg -> Error (Printf.sprintf "%s: %s" path msg)
  | exception Storage.Heap_file.Corrupt_page { page; _ } ->
      Error
        (Printf.sprintf
           "%s: a shard page (%d) failed its checksum (repair the shard, or \
            pass --on-error fallback/skip to scan around it)"
           path page)

let build_catalog ?fault ?on_corrupt ?stats bindings =
  List.fold_left
    (fun acc spec ->
      Result.bind acc (fun catalog ->
          let name, path = parse_binding spec in
          if Storage.Partition.is_partition_dir path then
            Result.map
              (fun (p, rel) ->
                Tsql.Catalog.with_layout
                  (Tsql.Catalog.add catalog name rel)
                  name
                  (Storage.Partition.shard_layout p))
              (load_partition ?fault ?on_corrupt path)
          else
            Result.map
              (fun rel -> Tsql.Catalog.add catalog name rel)
              (load_relation ?fault ?on_corrupt ?stats path)))
    (Ok (Tsql.Catalog.with_builtins ()))
    bindings

let relations_arg =
  Arg.(
    value & opt_all string []
    & info [ "r"; "relation" ] ~docv:"NAME=PATH"
        ~doc:
          "Bind a relation for use in queries (repeatable): a CSV file, a \
           .heap file, or a partition directory (created by $(b,CREATE \
           TABLE ... PARTITION BY RANGE (vt)) under serve's --data-dir), \
           whose shard layout then drives partition pruning.  A bare PATH \
           binds the file's basename.  The paper's $(i,Employed) relation \
           is always available.")

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY"
        ~doc:"TSQL2-subset query, e.g. 'SELECT COUNT(Name) FROM Employed'.")

let algorithm_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "algorithm" ] ~docv:"ALGO"
        ~doc:
          "Override the planned evaluation algorithm: $(b,sweep), \
           $(b,aggregation-tree), $(b,linked-list), $(b,balanced-tree), \
           $(b,two-scan), $(b,ktree(K)) or $(b,parallel(D,ALGO)).  \
           Overrides both the optimizer and any USING hint.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Shard the evaluation across N OCaml domains (multicore \
           divide-and-conquer); wraps the chosen algorithm in \
           $(b,parallel(N,...)).")

let join_strategy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "join-strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Override the planned interval-join strategy for JOIN queries: \
           $(b,sweep) (endpoint sweep over a gapless-hash active-tuple map) \
           or $(b,nested-loop).  Overrides the optimizer's \
           cardinality-based choice; ignored for join-free queries.")

let on_error_conv =
  Arg.conv
    ( (fun s ->
        Result.map_error
          (fun e -> `Msg e)
          (Tempagg.Engine.on_error_of_string s)),
      fun ppf p ->
        Format.pp_print_string ppf (Tempagg.Engine.on_error_to_string p) )

let on_error_arg =
  Arg.(
    value
    & opt (some on_error_conv) None
    & info [ "on-error" ] ~docv:"POLICY"
        ~doc:
          "Recovery policy for recoverable failures: $(b,fail) (abort with \
           a structured error), $(b,fallback) (retry along the fallback \
           chain — doubled k, then aggregation tree; flat sweep on a blown \
           memory budget) or $(b,skip) (additionally drop-and-count \
           misordered tuples and corrupt pages).  Overrides the query's ON \
           ERROR clause.  Any degradation is reported on stderr.")

let memory_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "memory-budget" ] ~docv:"BYTES"
        ~doc:
          "Cap the evaluation's live algorithm state (16-byte-node \
           accounting); exceeding it triggers the on-error policy.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline per evaluation, in milliseconds; running \
           past it aborts with a structured error (never retried).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic storage fault injection for .heap reads, e.g. \
           $(b,transient=0.1,torn=0.02,seed=7).  Keys: $(b,transient), \
           $(b,torn), $(b,bitflip) (per-page probabilities) and \
           $(b,seed).  For testing the recovery paths.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record tracing spans for the whole run (catalog load through \
           evaluation) and write them to FILE as Chrome trace_event JSON \
           — load it in about://tracing or Perfetto.  Parallel plans get \
           one span per shard.  The spans come from the flight-recorder \
           ring, sized for the run; spans it had to drop are reported on \
           stderr.")

(* --trace FILE: size the ring for the whole run, then dump it. *)
let trace_ring_spans = 65_536

let write_trace = function
  | None -> ()
  | Some path ->
      let spans = Obs.Trace.recorded () in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Obs.Trace.to_chrome_json spans));
      Printf.eprintf "trace: wrote %d span(s) to %s, %d dropped by the ring\n%!"
        (List.length spans) path
        (snd (Obs.Trace.ring_stats ()))

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the run, print a Prometheus-style metrics exposition \
           (I/O counters, degradations, and profile gauges with \
           $(b,--profile)) on stdout.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Run the query with an EXPLAIN-ANALYZE profile: algorithm and \
           rationale, k estimate, every evaluation attempt with its node \
           allocations and peak bytes (aborted fallback attempts \
           included), phase timings and output size.  Printed after the \
           result.  Query command only.")

let no_adaptive_arg =
  Arg.(
    value & flag
    & info [ "no-adaptive" ]
        ~doc:
          "Plan from declared metadata only, ignoring the per-relation \
           statistics store (observed k bounds, measured result sizes).  \
           Outcomes are still recorded for later adaptive runs.")

let exec kind bindings algorithm domains on_error join_strategy memory_budget
    deadline_ms faults trace metrics profile no_adaptive q =
  let adaptive = not no_adaptive in
  let parsed_algorithm =
    match algorithm with
    | None -> Ok None
    | Some name -> Result.map Option.some (Tempagg.Engine.of_string name)
  in
  let parsed_join_strategy =
    match join_strategy with
    | None -> Ok None
    | Some name -> Result.map Option.some (Join.Engine.strategy_of_string name)
  in
  let checked_domains =
    match domains with
    | Some d when d < 1 -> Error "--domains must be at least 1"
    | d -> Ok d
  in
  let parsed_faults =
    match faults with
    | None -> Ok None
    | Some spec -> Result.map Option.some (Storage.Fault.of_string spec)
  in
  (* Size the ring before the catalog loads so storage spans (heap
     reads, external sorts) land in the same timeline as the evaluation. *)
  if trace <> None then Obs.Trace.set_ring_capacity trace_ring_spans;
  let io_stats = Storage.Io_stats.create () in
  let print_metrics ?profile_report degradations =
    if metrics then begin
      let registry = Obs.Metrics.create () in
      Storage.Io_stats.to_metrics registry io_stats;
      Tempagg.Engine.degradations_to_metrics registry degradations;
      Option.iter (Obs.Profile.to_metrics registry) profile_report;
      print_string (Obs.Metrics.expose registry)
    end
  in
  let outcome =
    Result.bind parsed_algorithm (fun algorithm ->
        Result.bind parsed_join_strategy (fun join_strategy ->
        Result.bind checked_domains (fun domains ->
            Result.bind parsed_faults (fun fault ->
                let on_corrupt =
                  (* Corrupt pages abort the load under fail (the
                     default), and are skipped-and-counted otherwise. *)
                  match on_error with
                  | Some (Tempagg.Engine.Fallback | Tempagg.Engine.Skip) ->
                      `Skip
                  | Some Tempagg.Engine.Fail | None -> `Fail
                in
                Result.bind
                  (build_catalog ?fault ~on_corrupt ~stats:io_stats bindings)
                  (fun catalog ->
                    match kind with
                    | `Run ->
                        let ( let* ) = Result.bind in
                        let profile =
                          if profile then Some (Obs.Profile.create ()) else None
                        in
                        let* ast = Tsql.Parser.parse q in
                        let* plan =
                          Tsql.Eval.plan ~adaptive ?algorithm ?domains
                            ?on_error ?join_strategy ?profile catalog ast
                        in
                        let* report =
                          Tsql.Eval.execute ?memory_budget ?deadline_ms
                            ?profile catalog plan
                        in
                        Ok (`Report (report, profile))
                    | `Explain ->
                        Result.map
                          (fun s -> `Text s)
                          (Tsql.Eval.explain ~adaptive ?algorithm ?domains
                             ?on_error ?join_strategy catalog q))))))
  in
  write_trace trace;
  match outcome with
  | Ok (`Report ({ Tsql.Eval.result; degradations; _ }, profile)) ->
      Tsql.Pretty.print_result result;
      List.iter
        (fun d ->
          Printf.eprintf "degraded: %s\n%!"
            (Tempagg.Engine.degradation_to_string d))
        degradations;
      Option.iter (fun p -> print_string (Obs.Profile.to_string p)) profile;
      print_metrics ?profile_report:profile degradations;
      `Ok ()
  | Ok (`Text text) ->
      print_endline text;
      print_metrics [];
      `Ok ()
  | Error msg -> `Error (false, msg)

let query_cmd =
  let doc = "run a temporal aggregate query" in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      ret
        (const (exec `Run) $ relations_arg $ algorithm_arg $ domains_arg
       $ on_error_arg $ join_strategy_arg $ memory_budget_arg $ deadline_arg
       $ faults_arg $ trace_arg $ metrics_arg $ profile_arg $ no_adaptive_arg
       $ query_arg))

let explain_cmd =
  let doc = "show the evaluation plan for a query" in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      ret
        (const (exec `Explain) $ relations_arg $ algorithm_arg $ domains_arg
       $ on_error_arg $ join_strategy_arg $ memory_budget_arg $ deadline_arg
       $ faults_arg $ trace_arg $ metrics_arg $ profile_arg $ no_adaptive_arg
       $ query_arg))

(* generate *)

let generate n long_lived lifespan seed order k percentage output =
  let spec_result =
    match
      Workload.Spec.make ~long_lived_fraction:long_lived ~lifespan ~seed ~n ()
    with
    | spec -> Ok spec
    | exception Invalid_argument msg -> Error msg
  in
  match
    Result.bind spec_result (fun spec ->
        let rel = Workload.Generate.relation spec in
        match order with
        | `Random -> Ok rel
        | `Sorted -> Ok (Relation.Trel.sort_by_time rel)
        | `Kordered -> (
            let tuples =
              Array.of_list
                (Relation.Trel.tuples (Relation.Trel.sort_by_time rel))
            in
            let prng = Workload.Prng.create ~seed:(seed + 1) in
            match
              Ordering.Perturb.k_ordered
                ~rand:(Workload.Prng.int_bounded prng)
                ~k ~percentage tuples
            with
            | perturbed ->
                Ok
                  (Relation.Trel.of_array
                     (Relation.Trel.schema rel)
                     perturbed)
            | exception Invalid_argument msg -> Error msg))
  with
  | Error msg -> `Error (false, msg)
  | Ok rel ->
      (match output with
      | Some path ->
          save_relation path rel;
          Printf.printf "wrote %d tuples to %s\n" (Relation.Trel.cardinality rel)
            path
      | None -> print_string (Relation.Csv_io.to_string rel));
      `Ok ()

let order_enum =
  Arg.enum [ ("random", `Random); ("sorted", `Sorted); ("k-ordered", `Kordered) ]

let generate_cmd =
  let doc = "generate a synthetic temporal relation (Section 6 workload)" in
  let n =
    Arg.(value & opt int 1024 & info [ "n"; "tuples" ] ~docv:"N" ~doc:"Tuple count.")
  in
  let long =
    Arg.(
      value & opt float 0.
      & info [ "long-lived" ] ~docv:"FRACTION"
          ~doc:"Fraction of long-lived tuples (paper: 0, 0.4, 0.8).")
  in
  let lifespan =
    Arg.(
      value & opt int 1_000_000
      & info [ "lifespan" ] ~docv:"INSTANTS" ~doc:"Relation lifespan.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let order =
    Arg.(
      value & opt order_enum `Random
      & info [ "order" ] ~docv:"ORDER"
          ~doc:"Physical order: $(b,random), $(b,sorted) or $(b,k-ordered).")
  in
  let k =
    Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"k for k-ordered output.")
  in
  let percentage =
    Arg.(
      value & opt float 0.02
      & info [ "percentage" ] ~docv:"P"
          ~doc:"k-ordered-percentage for k-ordered output.")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      ret
        (const generate $ n $ long $ lifespan $ seed $ order $ k $ percentage
       $ output))

(* metrics *)

let metrics path ks =
  match load_relation path with
  | Error msg -> `Error (false, msg)
  | Ok rel ->
      let k = Ordering.Korder.k_of_relation rel in
      Printf.printf "tuples:            %d\n" (Relation.Trel.cardinality rel);
      Printf.printf "time-ordered:      %b\n" (Relation.Trel.is_time_ordered rel);
      Printf.printf "k-orderedness:     %d\n" k;
      List.iter
        (fun probe_k ->
          if probe_k >= k && probe_k > 0 then
            Printf.printf "percentage (k=%d): %.5f\n" probe_k
              (Ordering.Korder.relation_percentage ~k:probe_k rel))
        (if ks = [] then [ max k 1 ] else ks);
      `Ok ()

let metrics_cmd =
  let doc = "report sortedness metrics of a relation (Section 5.2)" in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc:"CSV relation.")
  in
  let ks =
    Arg.(
      value & opt_all int []
      & info [ "k" ] ~docv:"K" ~doc:"Report the k-ordered-percentage for this k (repeatable).")
  in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(ret (const metrics $ path $ ks))

(* sort *)

let sort_relation input output =
  match load_relation input with
  | Error msg -> `Error (false, msg)
  | Ok rel ->
      let sorted = Relation.Trel.sort_by_time rel in
      (match output with
      | Some path -> Relation.Csv_io.save path sorted
      | None -> print_string (Relation.Csv_io.to_string sorted));
      `Ok ()

(* convert *)

let convert input output =
  match load_relation input with
  | Error msg -> `Error (false, msg)
  | Ok rel ->
      save_relation output rel;
      Printf.printf "wrote %d tuples to %s\n"
        (Relation.Trel.cardinality rel)
        output;
      `Ok ()

let convert_cmd =
  let doc = "convert a relation between CSV and heap-file formats" in
  let input =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"INPUT" ~doc:"Source relation (.csv or .heap).")
  in
  let output =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"OUTPUT" ~doc:"Destination (.csv or .heap).")
  in
  Cmd.v (Cmd.info "convert" ~doc) Term.(ret (const convert $ input $ output))

(* extsort *)

let extsort memory_tuples fan_in src dst =
  if not (Filename.check_suffix src ".heap" && Filename.check_suffix dst ".heap")
  then `Error (false, "extsort operates on .heap files (see convert)")
  else
    let stats = Storage.Io_stats.create () in
    match
      Storage.External_sort.sort ~memory_tuples ~fan_in ~stats ~src ~dst ()
    with
    | () ->
        Printf.printf "sorted %s -> %s (%d pages read, %d written)\n" src dst
          (Storage.Io_stats.pages_read stats)
          (Storage.Io_stats.pages_written stats);
        `Ok ()
    | exception Invalid_argument msg -> `Error (false, msg)

let extsort_cmd =
  let doc =
    "external-merge-sort a heap file by valid time (run formation + k-way \
     merge)"
  in
  let memory =
    Arg.(
      value & opt int 4096
      & info [ "memory-tuples" ] ~docv:"N" ~doc:"In-memory run size.")
  in
  let fan_in =
    Arg.(value & opt int 16 & info [ "fan-in" ] ~docv:"K" ~doc:"Merge fan-in.")
  in
  let src =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SRC" ~doc:"Input heap file.")
  in
  let dst =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DST" ~doc:"Output heap file.")
  in
  Cmd.v (Cmd.info "extsort" ~doc)
    Term.(ret (const extsort $ memory $ fan_in $ src $ dst))

(* serve *)

(* --slowlog-out alone means "log everything": threshold 0. *)
let make_slowlog slowlog_ms slowlog_out =
  match (slowlog_ms, slowlog_out) with
  | None, None -> None
  | ms, _ ->
      Some (Obs.Slowlog.create ~threshold_ms:(Option.value ms ~default:0.) ())

let write_slowlog slowlog slowlog_out =
  match (slowlog, slowlog_out) with
  | Some log, Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Obs.Slowlog.to_json log));
      Printf.eprintf "slowlog: wrote %d entry(ies) to %s\n%!"
        (List.length (Obs.Slowlog.entries log))
        path
  | _ -> ()

(* The network server: the catalog/session machinery behind a TCP
   listener (or stdin as one connection), with admission control, a
   worker-domain pool, and graceful drain on SIGTERM/SIGINT.  A script
   is the Stdio transport's input: it is opened onto stdin. *)
let serve bindings cache_capacity trace no_adaptive slowlog_ms slowlog_out
    data_dir split_threshold script listen domains queue_depth
    degrade_watermark drain_timeout_ms idle_timeout_ms max_connections
    memory_budget deadline_ms on_error metrics_out recorder_spans
    recorder_pinned recorder_out scrape_every slo_file =
  let transport =
    match (listen, script) with
    | Some _, Some _ -> Error "--script and --listen are mutually exclusive"
    | None, None -> Error "one of --script or --listen is required"
    | None, Some path -> (
        match Unix.openfile path [ Unix.O_RDONLY ] 0 with
        | fd ->
            Unix.dup2 fd Unix.stdin;
            Unix.close fd;
            Ok Net.Server.Stdio
        | exception Unix.Unix_error (err, _, _) ->
            Error (Printf.sprintf "%s: %s" path (Unix.error_message err)))
    | Some listen, None -> (
        if String.lowercase_ascii listen = "stdin" then Ok Net.Server.Stdio
        else
          match int_of_string_opt listen with
          | Some p when p >= 0 && p < 65536 -> Ok (Net.Server.Tcp p)
          | _ ->
              Error
                (Printf.sprintf
                   "--listen expects a port number or 'stdin', got %S" listen))
  in
  match transport with
  | Error msg -> `Error (false, msg)
  | Ok transport -> (
      if domains < 1 then `Error (false, "--domains must be >= 1")
      else if queue_depth < 0 then `Error (false, "--queue-depth must be >= 0")
      else
        let partition_bindings, file_bindings =
          List.partition
            (fun spec ->
              Storage.Partition.is_partition_dir (snd (parse_binding spec)))
            bindings
        in
        match build_catalog file_bindings with
        | Error msg -> `Error (false, msg)
        | Ok catalog ->
            (* Flight-recorder sizing is global (the rings live inside
               Obs.Trace); set it before any statement records spans.
               --trace sizes the ring for the run unless
               --recorder-spans does. *)
            (match (recorder_spans, trace) with
            | Some n, _ -> Obs.Trace.set_ring_capacity n
            | None, Some _ -> Obs.Trace.set_ring_capacity trace_ring_spans
            | None, None -> ());
            (match recorder_pinned with
            | Some n -> Obs.Recorder.configure ~max_pinned:n ()
            | None -> ());
            let slowlog = make_slowlog slowlog_ms slowlog_out in
            let slo =
              match slo_file with
              | None -> Ok []
              | Some path -> Obs.Slo.parse_file path
            in
            match slo with
            | Error msg -> `Error (false, "--slo: " ^ msg)
            | Ok slo ->
            (* Objectives need the self-relations: --slo implies
               scraping at the default 1 s period. *)
            let scrape_every_ms =
              match (scrape_every, slo) with
              | Some ms, _ -> Some ms
              | None, _ :: _ -> Some 1000
              | None, [] -> None
            in
            let config =
              {
                Net.Server.transport;
                domains;
                queue_depth;
                degrade_watermark;
                drain_timeout_ms;
                idle_timeout_ms;
                max_connections;
                memory_budget;
                deadline_ms;
                degrade_deadline_ms = None;
                on_error;
                cache_capacity;
                adaptive = not no_adaptive;
                data_dir;
                partitions = List.map parse_binding partition_bindings;
                split_threshold;
                slowlog;
                recorder_out;
                scrape_every_ms;
                scrape_config = None;
                slo;
              }
            in
            let srv =
              try Ok (Net.Server.create ~config catalog)
              with Unix.Unix_error (err, _, _) ->
                Error
                  (Printf.sprintf "cannot listen on %s: %s"
                     (Option.value listen ~default:"stdin")
                     (Unix.error_message err))
            in
            (match srv with
            | Error msg -> `Error (false, msg)
            | Ok srv ->
                (* The banner goes to stderr: in stdin mode stdout is
                   the protocol channel, and in TCP mode scripts grep
                   stderr for the bound port. *)
                (match Net.Server.port srv with
                | Some p ->
                    Printf.eprintf
                      "tempagg: listening on port %d (%d domain(s), queue \
                       depth %d)\n\
                       %!"
                      p domains queue_depth
                | None -> Printf.eprintf "tempagg: serving stdin\n%!");
                let report = Net.Server.run ~signals:true srv in
                let out_report = Net.Server.report_to_string report in
                (match transport with
                | Net.Server.Stdio -> Printf.eprintf "%s%!" out_report
                | Net.Server.Tcp _ -> print_string out_report);
                (match metrics_out with
                | None -> ()
                | Some path ->
                    (* Atomic (temp + rename): a scraper racing the
                       drain never reads a torn exposition. *)
                    Obs.Metrics.write_file report.Net.Server.metrics path;
                    Printf.eprintf "metrics: wrote %s\n%!" path);
                write_slowlog slowlog slowlog_out;
                write_trace trace;
                (* Over stdin every reply went to stdout; a line that
                   answered ERR fails the run, so a broken script fails. *)
                match transport with
                | Net.Server.Stdio when report.Net.Server.errors > 0 ->
                    `Error
                      ( false,
                        Printf.sprintf "%d line(s) answered ERR"
                          report.Net.Server.errors )
                | _ -> `Ok ()))

let serve_cmd =
  let doc =
    "serve the line protocol to many TCP clients with admission control \
     and graceful drain, or run a statement script"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs mutable sessions over the bound relations: statements may \
         interleave $(b,CREATE VIEW name AS query), $(b,REFRESH VIEW), \
         $(b,DROP VIEW), $(b,INSERT INTO r VALUES (...) DURING [a,b]), \
         $(b,DELETE FROM r WHERE ...) and $(b,SELECT).  Views with a \
         plain by-instant, ungrouped definition are maintained \
         incrementally on every write; others are recomputed lazily.";
      `P
        "With $(b,--listen) the server speaks a line protocol: one \
         statement per line, each answered by $(b,OK n [degraded]) plus \
         $(i,n) payload lines, $(b,ERR msg), or $(b,BUSY reason) when the \
         bounded admission queue sheds the request.  $(b,PING)/$(b,QUIT) \
         are answered inline ($(b,PONG)/$(b,BYE)); PING bypasses \
         admission, so it stays a liveness probe even at saturation.  \
         Requests queued past the degrade watermark run under an ON ERROR \
         fallback policy and a tighter deadline.  SIGTERM/SIGINT drain \
         gracefully: stop accepting, finish or shed queued work within \
         $(b,--drain-timeout-ms), flush, exit 0.  The report gives \
         per-statement-kind latency percentiles.";
      `P
        "$(b,--listen stdin) serves stdin/stdout as one connection behind \
         the same dispatcher, and $(b,--script) FILE does the same with \
         FILE as the input: one statement per line, an optional \
         trailing semicolon, $(b,--) comment lines skipped.  Every line \
         is answered on stdout and the report goes to stderr; the run \
         exits non-zero when any line answered $(b,ERR).";
    ]
  in
  let cache =
    Arg.(
      value & opt int 128
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Query-cache capacity in entries.")
  in
  let script =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"PATH"
          ~doc:
            "Serve the statement lines of $(docv) as one stdin connection \
             ($(b,--listen stdin) reading $(docv); exclusive with \
             $(b,--listen)).")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "Serve the line protocol on TCP $(docv) (0 picks an ephemeral \
             port, reported on stderr), or on stdin/stdout with \
             $(b,--listen stdin).")
  in
  let domains =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains executing statements (the in-flight budget).")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"Q"
          ~doc:
            "Admission queue bound: with every domain busy, up to $(docv) \
             statements wait; past that they are shed with $(b,BUSY).")
  in
  let degrade_watermark =
    Arg.(
      value
      & opt (some int) None
      & info [ "degrade-watermark" ] ~docv:"W"
          ~doc:
            "Queue length at which admitted statements degrade (fallback \
             policy + tighter deadline).  Default: half the queue depth.")
  in
  let drain_timeout_ms =
    Arg.(
      value & opt int 5000
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:
            "On SIGTERM/SIGINT, grace period for finishing accepted work \
             before still-queued statements are shed and connections \
             closed.")
  in
  let idle_timeout_ms =
    Arg.(
      value & opt int 60_000
      & info [ "idle-timeout-ms" ] ~docv:"MS"
          ~doc:"Reap connections with no traffic for $(docv) milliseconds.")
  in
  let max_connections =
    Arg.(
      value & opt int 1024
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Connections beyond $(docv) are refused with $(b,BUSY).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"PATH"
          ~doc:
            "After the server drains, write its Prometheus metrics \
             exposition (accepted/active/queued/shed/timed-out plus \
             per-kind latency histograms) to $(docv).")
  in
  let slowlog_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slowlog-ms" ] ~docv:"MS"
          ~doc:
            "Capture statements taking at least $(docv) milliseconds into \
             the slow-query log (0 captures everything).  With a slowlog \
             every statement runs with a profile, so a slow SELECT against \
             a base relation carries the EXPLAIN ANALYZE report of its own \
             run.")
  in
  let slowlog_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "slowlog-out" ] ~docv:"PATH"
          ~doc:
            "Write the slow-query log as JSON to $(docv) after the run.  \
             Implies --slowlog-ms 0 when that is not given.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Directory where $(b,CREATE TABLE ... PARTITION BY RANGE (vt)) \
             places partition directories (one per table), created with \
             any missing parents.  Over stdin ($(b,--script) or \
             $(b,--listen stdin)) a table lands at DIR/name; each TCP \
             connection gets its own DIR/conn-N.  Defaults to a fresh \
             temporary directory; pass a DIR to keep the partitions \
             across runs (re-bind them with $(b,-r NAME=DIR/name)).")
  in
  let split_threshold =
    Arg.(
      value
      & opt (some int) None
      & info [ "split-threshold" ] ~docv:"N"
          ~doc:
            "Maximum tuples a partition shard may hold before a write \
             splits it at its median start instant (default 8192).")
  in
  let recorder_spans =
    Arg.(
      value
      & opt (some int) None
      & info [ "recorder-spans" ] ~docv:"N"
          ~doc:
            "Flight-recorder ring capacity in spans per domain (default \
             2048; 0 disables the always-on recorder).")
  in
  let recorder_pinned =
    Arg.(
      value
      & opt (some int) None
      & info [ "recorder-pinned" ] ~docv:"N"
          ~doc:
            "Traces the flight recorder retains for slow/shed/degraded/\
             errored requests before evicting the oldest (default 64).")
  in
  let recorder_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "recorder-out" ] ~docv:"PATH"
          ~doc:
            "Write the flight-recorder dump (Chrome trace JSON) to $(docv) \
             on SIGUSR1 and again when the server drains.  Without it \
             SIGUSR1 still dumps, to tempagg-recorder.json.")
  in
  let scrape_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "scrape-every" ] ~docv:"MS"
          ~doc:
            "Self-scrape period: every $(docv) milliseconds the server \
             samples its own metrics registry into the $(b,_metrics) and \
             $(b,_requests) temporal relations (counters delta-encoded to \
             rates, per-kind latency histograms to p50/p99 rows), bounded \
             by retention with SPAN-aggregate downsampling.  Every \
             session can then query the server about itself: \
             $(b,SELECT AVG(value) FROM _metrics WHERE name = '...' \
             DURING [a,b]).")
  in
  let slo_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"FILE"
          ~doc:
            "Service-level objectives, one per line: $(i,name) $(i,target) \
             < $(i,threshold) over $(i,window) fast $(i,window) [kind \
             $(i,k)], where target is error_ratio, p50 or p99.  Evaluated \
             on every scrape tick (implies $(b,--scrape-every 1000) when \
             not given) by compiling each objective to TSQL over the \
             self-relations, with multi-window burn rates: both windows \
             burning is a breach, one a warning.  Verdicts feed the \
             tempagg_slo_* metrics, the $(b,SLO) verb / $(b,SHOW SLO) \
             statement, and the final report's alert lines.")
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      ret
        (const serve $ relations_arg $ cache $ trace_arg $ no_adaptive_arg
       $ slowlog_ms $ slowlog_out $ data_dir $ split_threshold $ script
       $ listen $ domains $ queue_depth $ degrade_watermark
       $ drain_timeout_ms $ idle_timeout_ms $ max_connections
       $ memory_budget_arg $ deadline_arg $ on_error_arg
       $ metrics_out $ recorder_spans $ recorder_pinned $ recorder_out
       $ scrape_every $ slo_file))

(* client *)

let client connect script strict quiet trace_ids =
  (* The server closing mid-write must surface as EPIPE, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let host, port =
    match String.rindex_opt connect ':' with
    | Some i ->
        ( String.sub connect 0 i,
          int_of_string_opt
            (String.sub connect (i + 1) (String.length connect - i - 1)) )
    | None -> ("127.0.0.1", int_of_string_opt connect)
  in
  match port with
  | None -> `Error (false, Printf.sprintf "cannot parse %S as HOST:PORT" connect)
  | Some port -> (
      let text =
        match script with
        | Some path -> (
            try Ok (In_channel.with_open_text path In_channel.input_all)
            with Sys_error msg -> Error msg)
        | None -> Ok (In_channel.input_all In_channel.stdin)
      in
      match text with
      | Error msg -> `Error (false, msg)
      | Ok text -> (
          match Net.Client.connect ~host ~port () with
          | exception Unix.Unix_error (err, _, _) ->
              `Error
                ( false,
                  Printf.sprintf "cannot connect to %s:%d: %s" host port
                    (Unix.error_message err) )
          | c ->
              let ok = ref 0 and err = ref 0 and busy = ref 0 in
              let violation = ref None in
              let finished = ref false in
              (* One request line at a time; blank lines and -- comments
                 get no reply from the server, so skip them here too. *)
              let lines =
                List.filter
                  (fun l ->
                    l <> ""
                    && not (String.length l >= 2 && String.sub l 0 2 = "--"))
                  (List.map String.trim (String.split_on_char '\n' text))
              in
              let seq = ref 0 in
              List.iter
                (fun line ->
                  if !violation = None && not !finished then begin
                    (* With --trace-ids every statement is tagged with a
                       client-chosen request id (c<pid>-<n>) so its
                       flight-recorder trace can be pulled later with
                       TRACE DUMP <id>.  Control verbs (PING, QUIT,
                       METRICS, TRACE DUMP) are answered on the event
                       loop without a request id and stay untagged. *)
                    let control =
                      let upper = String.uppercase_ascii line in
                      upper = "QUIT" || upper = "PING"
                      || Net.Protocol.metrics_request line
                      || Net.Protocol.trace_dump_request line <> None
                    in
                    let trace =
                      if trace_ids && not control then begin
                        let id =
                          Printf.sprintf "c%d-%d" (Unix.getpid ()) !seq
                        in
                        incr seq;
                        Some id
                      end
                      else None
                    in
                    match Net.Client.request ?trace c line with
                    | Ok (Net.Protocol.Ok_reply { degraded; trace; payload })
                      ->
                        incr ok;
                        if not quiet then begin
                          if degraded then
                            Printf.printf "-- degraded: %s\n" line;
                          (match trace with
                          | Some id when trace_ids ->
                              Printf.printf "-- trace: %s\n" id
                          | _ -> ());
                          List.iter print_endline payload
                        end
                    | Ok Net.Protocol.Pong -> incr ok
                    | Ok Net.Protocol.Bye -> finished := true
                    | Ok (Net.Protocol.Err msg) ->
                        incr err;
                        Printf.eprintf "ERR %s (statement: %s)\n%!" msg line
                    | Ok (Net.Protocol.Busy reason) ->
                        incr busy;
                        Printf.eprintf "BUSY %s (statement: %s)\n%!" reason line
                    | Error msg -> violation := Some msg
                  end)
                lines;
              if !violation = None && not !finished then begin
                match Net.Client.request c "QUIT" with
                | Ok Net.Protocol.Bye -> ()
                | Ok _ -> violation := Some "QUIT answered with a non-BYE reply"
                | Error msg -> violation := Some msg
              end;
              Net.Client.close c;
              Printf.printf "client: %d ok, %d err, %d busy\n%!" !ok !err !busy;
              (match !violation with
              | Some msg -> `Error (false, "protocol violation: " ^ msg)
              | None ->
                  if strict && (!err > 0 || !busy > 0) then
                    `Error
                      ( false,
                        Printf.sprintf
                          "--strict: %d ERR / %d BUSY reply(ies)" !err !busy )
                  else `Ok ())))

let client_cmd =
  let doc = "run a statement script against a running tempagg server" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects to $(b,tempagg serve --listen), sends one statement per \
         line, and prints each reply payload.  Exits non-zero on a \
         protocol violation (malformed reply, truncated payload, \
         unexpected EOF); with $(b,--strict), also when any statement \
         answered $(b,ERR) or $(b,BUSY).  A $(b,QUIT) is sent at the end \
         when the script does not include one.";
    ]
  in
  let connect =
    Arg.(
      value
      & opt string "127.0.0.1:7411"
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Server address (a bare port means 127.0.0.1).")
  in
  let script =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"PATH"
          ~doc:"Statement script, one per line (default: stdin).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Fail (non-zero exit) when any reply is ERR or BUSY.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress reply payloads (keep the summary).")
  in
  let trace_ids =
    Arg.(
      value & flag
      & info [ "trace-ids" ]
          ~doc:
            "Tag every statement with a client-chosen request id (TRACE \
             c<pid>-<n> prefix) and print the id echoed in each OK reply \
             — the key for a later TRACE DUMP <id>.")
  in
  Cmd.v (Cmd.info "client" ~doc ~man)
    Term.(ret (const client $ connect $ script $ strict $ quiet $ trace_ids))

let sort_cmd =
  let doc = "sort a relation by valid time (start, then stop)" in
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc:"CSV relation.")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output file (default stdout).")
  in
  Cmd.v (Cmd.info "sort" ~doc) Term.(ret (const sort_relation $ input $ output))

let main =
  let doc = "temporal aggregate computation (Kline & Snodgrass, ICDE 1995)" in
  Cmd.group
    (Cmd.info "tempagg" ~version:"1.0.0" ~doc)
    [ query_cmd; explain_cmd; serve_cmd; client_cmd; generate_cmd; metrics_cmd;
      sort_cmd; convert_cmd; extsort_cmd ]

let () = exit (Cmd.eval main)
