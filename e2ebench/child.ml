(* The two child processes the load generator starts by re-executing
   itself.

   - [server]: a real [Net.Server] over TCP, holding only what a server
     holds.  It builds its in-memory relations from the seed (the load
     generator never ships data) and binds the partition directories the
     load generator bulk-loaded.  It announces "ready <port> <created-at>"
     on stdout, serves until SIGTERM drains it, and writes what only it
     can see to its result file: its peak RSS and, when traced, one line
     of span times per request.

   - [replay]: the statement stream a traced run sent, replayed in
     dispatch order through one [Tsql.Session] per connection, built the
     way [Net.Server] builds a connection's session, with each public
     call into a layer timed separately. *)

open Relation

let peak_rss_kb () =
  let line =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_lines
      |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
    with Sys_error _ -> None
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d" Fun.id
  | None -> 0

(* In-memory relations go into the catalog; partitioned ones are bound
   by directory, as [serve -r name=DIR] binds them. *)
let catalog_and_partitions ~seed ~scale ~work (w : Mix.t) =
  List.fold_left
    (fun (cat, parts) (r : Mix.relation) ->
      if r.shards = 0 then (Tsql.Catalog.add cat r.rname (Mix.trel ~seed r), parts)
      else (cat, parts @ [ (r.rname, Filename.concat work r.rname) ]))
    (Tsql.Catalog.create (), [])
    (Mix.relations ~scale w)

(* Large enough for every span of a traced phase on every domain; the
   result file reports drops, so an undersized ring shows. *)
let traced_ring = 1 lsl 15

(* ---- server ---- *)

(* Microseconds of [start, stop] covered by at least one of [spans]. *)
let interval_cover spans ~start ~stop =
  let ivs =
    List.sort compare
      (List.filter_map
         (fun (s : Obs.Trace.span) ->
           let a = max start s.start_us and b = min stop s.stop_us in
           if b > a then Some (a, b) else None)
         spans)
  in
  let rec merge acc (ca, cb) = function
    | [] -> acc + (cb - ca)
    | (a, b) :: rest ->
        if a <= cb then merge acc (ca, max cb b) rest
        else merge (acc + (cb - ca)) (a, b) rest
  in
  match ivs with [] -> 0 | first :: rest -> merge 0 first rest

(* One line per traced request: the request, queue-wait and execute
   span durations, the engine's self time (its "eval" spans minus the
   part their children cover) and the engine's inclusive time (outermost
   "eval" spans only). *)
let span_lines ~prefix spans =
  let children = Hashtbl.create 1024 and by_id = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      Hashtbl.replace by_id s.id s;
      Option.iter (fun p -> Hashtbl.add children p s) s.parent)
    spans;
  let traces = Hashtbl.create 256 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      if String.starts_with ~prefix s.trace && s.stop_us >= s.start_us then
        Hashtbl.replace traces s.trace
          (s :: Option.value (Hashtbl.find_opt traces s.trace) ~default:[]))
    spans;
  Hashtbl.fold
    (fun trace ss acc ->
      let dur label =
        List.fold_left
          (fun acc (s : Obs.Trace.span) ->
            if s.label = label then acc + (s.stop_us - s.start_us) else acc)
          0 ss
      in
      let evals = List.filter (fun (s : Obs.Trace.span) -> s.label = "eval") ss in
      let self =
        List.fold_left
          (fun acc (s : Obs.Trace.span) ->
            acc + (s.stop_us - s.start_us)
            - interval_cover (Hashtbl.find_all children s.id) ~start:s.start_us
                ~stop:s.stop_us)
          0 evals
      in
      let outer =
        List.fold_left
          (fun acc (s : Obs.Trace.span) ->
            let nested =
              match Option.bind s.parent (Hashtbl.find_opt by_id) with
              | Some p -> p.Obs.Trace.label = "eval" || p.Obs.Trace.label = "shard"
              | None -> false
            in
            if nested then acc else acc + (s.stop_us - s.start_us))
          0 evals
      in
      if dur "request" > 0 then
        Printf.sprintf "span %s %d %d %d %d %d %d" trace (dur "request")
          (dur "queue-wait") (dur "execute") self outer (List.length evals)
        :: acc
      else acc)
    traces []

let server ~seed ~scale ~work ~traced ~out (w : Mix.t) =
  let catalog, partitions = catalog_and_partitions ~seed ~scale ~work w in
  if traced then Obs.Trace.set_ring_capacity traced_ring;
  let config =
    {
      Net.Server.default_config with
      Net.Server.transport = Net.Server.Tcp 0;
      domains = 2;
      queue_depth = 8;
      drain_timeout_ms = 60_000;
      idle_timeout_ms = 600_000;
      partitions;
      scrape_every_ms = w.scrape_ms;
    }
  in
  let created = Monotonic_clock.now () in
  let srv = Net.Server.create ~config catalog in
  Printf.printf "ready %d %Ld\n%!" (Option.get (Net.Server.port srv)) created;
  let report = Net.Server.run ~signals:true srv in
  let lines =
    [
      Printf.sprintf "drained %b" report.Net.Server.drained;
      Printf.sprintf "errors %d" report.Net.Server.errors;
      Printf.sprintf "shed %d" report.Net.Server.shed;
      Printf.sprintf "rss_kb %d" (peak_rss_kb ());
      Printf.sprintf "ring_dropped %d" (snd (Obs.Trace.ring_stats ()));
    ]
    @ (if traced then span_lines ~prefix:(w.name ^ "-") (Obs.Trace.recorded ())
       else [])
  in
  Out_channel.with_open_text out (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  if report.Net.Server.drained then 0 else 2

(* ---- replay ---- *)

let time f =
  let t0 = Stat.now () in
  let v = f () in
  (v, (Stat.now () -. t0) *. 1e6)

(* Net.Server.new_session, minus the introspection hooks no replayed
   statement reads. *)
let new_session catalog partitions =
  let session =
    Tsql.Session.create ~cache_capacity:Net.Server.default_config.cache_capacity
      ~adaptive:true
      (Tsql.Catalog.with_store catalog (Obs.Stats.create_store ()))
  in
  List.iter
    (fun (name, dir) ->
      Tsql.Session.add_partition session name (Storage.Partition.load dir))
    partitions;
  session

let storage_totals sessions =
  List.fold_left
    (fun (rd, wr, sc, pr, shards) s ->
      List.fold_left
        (fun (rd, wr, sc, pr, shards) (_, p) ->
          let io = Storage.Partition.io_totals p in
          let _, scanned, pruned = Storage.Partition.pruning_totals p in
          ( rd + io.Storage.Io_stats.pages_read,
            wr + io.Storage.Io_stats.pages_written,
            sc + scanned,
            pr + pruned,
            shards + Storage.Partition.shard_count p ))
        (rd, wr, sc, pr, shards)
        (Tsql.Session.partitions s))
    (0, 0, 0, 0, 0) sessions

(* A SELECT the way [Session.select] runs one on a base relation, one
   timed call per layer; [Eval.record_outcome] is called as the session
   calls it, so adaptive planning sees the same history. *)
let replay_select session (q : Tsql.Ast.query) trace =
  let cat, catalog_us = time (fun () -> Tsql.Session.catalog session) in
  let plan, analyze_us =
    time (fun () ->
        match Tsql.Semant.analyze ~adaptive:true cat q with
        | Ok p -> p
        | Error e -> failwith ("replay: " ^ e))
  in
  (if plan.Tsql.Semant.shard_layout <> [] then
     match List.assoc_opt q.Tsql.Ast.from (Tsql.Session.partitions session) with
     | Some p ->
         Storage.Partition.record_pruning p ~scanned:plan.Tsql.Semant.scanned_shards
           ~pruned:plan.Tsql.Semant.pruned_shards
     | None -> ());
  let rel, run_us = time (fun () -> Tsql.Eval.run plan) in
  let (), record_us =
    time (fun () ->
        Tsql.Eval.record_outcome cat plan ~elapsed_ms:(run_us /. 1000.)
          ~degradations:0 rel)
  in
  let (text, payload), format_us =
    time (fun () ->
        let text = Tsql.Pretty.result_to_string rel in
        (text, List.filter (fun l -> l <> "") (String.split_on_char '\n' text)))
  in
  let _, encode_us =
    time (fun () ->
        Net.Protocol.encode
          (Net.Protocol.Ok_reply { degraded = false; trace = Some trace; payload }))
  in
  ( [ catalog_us; analyze_us; run_us; record_us; format_us; encode_us ],
    Trel.cardinality rel,
    String.length text,
    plan.Tsql.Semant.join <> None )

let replay ~seed ~scale ~work ~stream ~budget_s ~out (w : Mix.t) =
  let catalog, partitions = catalog_and_partitions ~seed ~scale ~work w in
  let sessions = Array.init 2 (fun _ -> new_session catalog partitions) in
  (* The server samples its own registry into [_requests]; the replay
     feeds the same family from its own timings on the same period. *)
  let registry = Obs.Metrics.create () in
  let scraper =
    Option.map
      (fun ms ->
        Selfmon.Scrape.create
          ~config:{ Selfmon.Scrape.default_config with tick_us = ms * 1000 }
          registry)
      w.scrape_ms
  in
  Option.iter (fun s -> Selfmon.Scrape.scrape s) scraper;
  let versions = Array.make 2 (-1) in
  let refresh i =
    match scraper with
    | None -> ()
    | Some s ->
        let now = Obs.Trace.now_us () in
        if Selfmon.Scrape.due s ~now_us:now then Selfmon.Scrape.scrape ~now_us:now s;
        let v = Selfmon.Scrape.version s in
        if versions.(i) <> v then begin
          versions.(i) <- v;
          Tsql.Session.replace_base sessions.(i) Selfmon.Scrape.metrics_name
            (Selfmon.Scrape.metrics_relation s);
          Tsql.Session.replace_base sessions.(i) Selfmon.Scrape.requests_name
            (Selfmon.Scrape.requests_relation s)
        end
  in
  let stmts =
    In_channel.with_open_text stream In_channel.input_lines
    |> List.filter_map (fun l ->
           match String.split_on_char '\t' l with
           | [ conn; trace; text ] -> Some (int_of_string conn, trace, text)
           | _ -> None)
  in
  let all = Array.to_list sessions in
  let rd0, wr0, sc0, pr0, shards0 = storage_totals all in
  let _, _, pairs0, _ = Join.Telemetry.totals () in
  let deadline = Stat.now () +. budget_s in
  let reads = ref 0 and writes = ref 0 and joins = ref 0 in
  let lines = ref [] in
  List.iter
    (fun (conn, trace, text) ->
      if Stat.now () < deadline then begin
        refresh conn;
        let session = sessions.(conn) in
        let stmt, parse_us =
          time (fun () ->
              match Tsql.Parser.parse_statement text with
              | Ok s -> s
              | Error e -> failwith ("replay: " ^ e))
        in
        let kind, layers, write_us, rows, bytes =
          match stmt with
          | Tsql.Ast.Select q ->
              incr reads;
              let layers, rows, bytes, join = replay_select session q trace in
              if join then incr joins;
              ("r", layers, 0., rows, bytes)
          | _ ->
              incr writes;
              let r, write_us =
                time (fun () -> Tsql.Session.exec_statement session stmt)
              in
              (match r with Ok _ -> () | Error e -> failwith ("replay: " ^ e));
              ("w", [ 0.; 0.; 0.; 0.; 0.; 0. ], write_us, 0, 0)
        in
        let total = parse_us +. write_us +. List.fold_left ( +. ) 0. layers in
        Obs.Histogram.observe
          (Obs.Metrics.histogram registry
             ~labels:[ ("kind", Tsql.Serve.kind_of stmt) ]
             "tempagg_net_latency_us")
          total;
        (* stmt TRACE r|w parse catalog analyze run record format encode
           write rows bytes (times in microseconds) *)
        lines :=
          String.concat " "
            ([ "stmt"; trace; kind ]
            @ List.map (Printf.sprintf "%.3f") ((parse_us :: layers) @ [ write_us ])
            @ [ string_of_int rows; string_of_int bytes ])
          :: !lines
      end)
    stmts;
  let rd1, wr1, sc1, pr1, shards1 = storage_totals all in
  let _, _, pairs1, _ = Join.Telemetry.totals () in
  Out_channel.with_open_text out (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !lines);
      Printf.fprintf oc "totals %d %d %d %d %d %d %d %d %d\n" !reads !writes !joins
        (rd1 - rd0) (wr1 - wr0) (sc1 - sc0) (pr1 - pr0) (shards1 - shards0)
        (pairs1 - pairs0));
  0
