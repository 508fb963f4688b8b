(* End-to-end benchmark: a real TCP server, driven the way its clients
   drive it.

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1
     e2e.exe [--workload a,b] [--seed N] [--repeats R] [--trace 0|1]
             [--json OUT]                      # several runs, one file
     e2e.exe --smoke                           # all workloads at ~1% size
     e2e.exe --compare OLD.json NEW.json       # noise-aware verdicts

   One run starts a server child, connects two client connections from
   this process (one systhread each, closed loop: a connection sends its
   next statement only after the reply to the previous one), times every
   statement for [--seconds], checks sampled answers against an oracle,
   and prints every metric with its unit, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  [--trace 0] reports
   the end-to-end metrics; [--trace 1] reports the per-layer breakdown
   from a traced run and an in-process replay (see README.md).

   This process never spawns a Domain: the server and the replay are
   separate executions of this binary ([--child]), so their memory and
   domains are their own. *)

let e2e_metrics =
  [
    ("p50_ms", "ms");
    ("p95_ms", "ms");
    ("throughput_sps", "1/s");
    ("setup_s", "s");
    ("server_rss_mb", "MB");
  ]

let layer_metrics =
  [
    ("net.server.request_us.p50", "us");
    ("net.server.request_us.p95", "us");
    ("net.admission.queue_wait_us.p50", "us");
    ("net.admission.queue_wait_us.p95", "us");
    ("net.server.execute_us.p50", "us");
    ("net.server.execute_us.p95", "us");
    ("tempagg.engine.self_us.p50", "us");
    ("tempagg.engine.self_us.p95", "us");
    ("tempagg.engine.share", "ratio");
    ("net.wire_us.p50", "us");
    ("tsql.parser.parse_us.p50", "us");
    ("tsql.session.catalog_us.p50", "us");
    ("tsql.session.catalog_us.p95", "us");
    ("tsql.semant.analyze_us.p50", "us");
    ("tsql.eval.run_us.p50", "us");
    ("tsql.eval.run_us.p95", "us");
    ("tsql.eval.rows_out.p50", "count");
    ("tsql.pretty.format_us.p50", "us");
    ("tsql.pretty.format_us.p95", "us");
    ("tsql.pretty.reply_bytes.p50", "bytes");
    ("net.protocol.encode_us.p50", "us");
    ("storage.partition.pages_read_per_read", "count");
    ("storage.partition.pages_written_per_write", "count");
    ("storage.partition.shards_scanned_ratio", "ratio");
    ("storage.partition.splits", "count");
    ("storage.partition.disk_mb", "MB");
    ("join.pairs_per_stmt", "count");
    ("layer_coverage", "ratio");
    ("tracing_overhead", "ratio");
  ]

type opts = {
  workloads : Mix.t list;
  seed : int;
  seconds : float;
  trace : bool;
  repeats : int;
  json : string option;
  scale : float;
  setups : int;  (* server set-ups per run; [setup_s] is their median *)
}

let fail fmt = Printf.ksprintf failwith fmt
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- child processes ---- *)

let children : int list ref = ref []

let spawn args ~stdout =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin stdout
      Unix.stderr
  in
  children := pid :: !children;
  pid

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status ->
      children := List.filter (( <> ) pid) !children;
      status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait pid) with Unix.Unix_error _ -> ())
    !children

(* A run that overruns its limit kills its children and exits non-zero
   instead of hanging whoever waits on it. *)
let run_deadline = ref infinity

let start_watchdog () =
  ignore
    (Thread.create
       (fun () ->
         while true do
           Thread.delay 1.;
           if Stat.now () > !run_deadline then begin
             log "e2e: run exceeded its time limit";
             kill_children ();
             Unix._exit 3
           end
         done)
       ())

(* ---- work directory (inside the current directory) ---- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          output_string oc data))
    (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* ---- one server lifetime ---- *)

type server = { pid : int; port : int; created : float; out : string }

let child_args o (w : Mix.t) ~seed ~work =
  [
    "--workload"; w.name; "--seed"; string_of_int seed; "--scale";
    Printf.sprintf "%.17g" o.scale; "--work"; work;
  ]

let start_server o w ~seed ~work ~traced ~out =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    spawn
      ([ "--child"; "server" ] @ child_args o w ~seed ~work
      @ [ "--trace"; (if traced then "1" else "0"); "--out"; out ])
      ~stdout:wr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = In_channel.input_line ic in
  close_in ic;
  match line with
  | Some l ->
      Scanf.sscanf l "ready %d %Ld" (fun port ns ->
          { pid; port; created = Int64.to_float ns *. 1e-9; out })
  | None ->
      ignore (wait pid);
      fail "server child exited before listening"

(* SIGTERM drains the server; its result file is written after drain. *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let status = wait s.pid in
  let lines = In_channel.with_open_text s.out In_channel.input_lines in
  if status <> Unix.WEXITED 0 then fail "server child did not drain cleanly";
  lines

let field lines key =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ k; v ] when k = key -> Some v
      | _ -> None)
    lines

(* ---- load generation ---- *)

type status = Done | Refused of string

type sample = {
  conn : int;
  seq : int;
  stmt : Mix.stmt;
  trace : string;
  latency : float;  (* seconds, send to full reply *)
  finished : float;
  status : status;
  payload : string list option;  (* kept for the answer checks *)
}

let warmup_statements = 10

(* Every connection answers its warm-up before set-up counts as done;
   the statements are reads, so set-up leaves the data unchanged. *)
let warm_up clients (conns : Mix.conn array) =
  let errors = ref [] in
  let threads =
    Array.mapi
      (fun i c ->
        Thread.create
          (fun () ->
            for _ = 1 to warmup_statements do
              let stmt = conns.(i).warmup () in
              match Net.Client.request c stmt.Mix.text with
              | Ok (Net.Protocol.Ok_reply _) -> ()
              | Ok _ | Error _ | (exception (Unix.Unix_error _ | Sys_error _)) ->
                  errors := stmt.Mix.text :: !errors
            done)
          ())
      clients
  in
  Array.iter Thread.join threads;
  if !errors <> [] then fail "warm-up statement failed: %s" (List.hd !errors)

let setup o w ~seed ~work ~traced ~out =
  let s = start_server o w ~seed ~work ~traced ~out in
  let clients = Array.init 2 (fun _ -> Net.Client.connect ~port:s.port ()) in
  let conns = Mix.conns ~seed ~scale:o.scale w in
  warm_up clients conns;
  (s, clients, conns, Stat.now () -. s.created)

(* A connection's closed loop.  The reply to the first statement of each
   class and to every 25th statement is kept for the answer checks. *)
let drive (w : Mix.t) ~client ~conn_i ~(conn : Mix.conn) ~deadline ~traced
    ~dispatched =
  let samples = ref [] and seen = Hashtbl.create 8 in
  let rec loop seq =
    if Stat.now () < deadline then begin
      let stmt = conn.next () in
      let trace = Printf.sprintf "%s-%d-%d" w.name conn_i seq in
      dispatched conn_i trace stmt.Mix.text;
      let t0 = Stat.now () in
      let reply =
        try
          Net.Client.request
            ?trace:(if traced then Some trace else None)
            client stmt.Mix.text
        with
        | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | Sys_error e -> Error e
      in
      let finished = Stat.now () in
      let keep = (not (Hashtbl.mem seen stmt.cls)) || seq mod 25 = 0 in
      Hashtbl.replace seen stmt.cls ();
      let status, payload, go_on =
        match reply with
        | Ok (Net.Protocol.Ok_reply { payload; _ }) ->
            (Done, (if keep then Some payload else None), true)
        | Ok (Net.Protocol.Err m) -> (Refused ("ERR " ^ m), None, true)
        | Ok (Net.Protocol.Busy m) -> (Refused ("BUSY " ^ m), None, true)
        | Ok _ -> (Refused "protocol violation: unexpected reply", None, false)
        | Error e -> (Refused ("protocol violation: " ^ e), None, false)
      in
      samples :=
        {
          conn = conn_i;
          seq;
          stmt;
          trace;
          latency = finished -. t0;
          finished;
          status;
          payload;
        }
        :: !samples;
      if go_on then begin
        if conn.think_s > 0. then Thread.delay conn.think_s;
        loop (seq + 1)
      end
    end
  in
  loop 0;
  List.rev !samples

type phase = {
  samples : sample list;  (* timed statements, every connection *)
  elapsed : float;
  setup_times : float list;
  server_lines : string list;
  dispatched : (int * string * string) list;  (* in dispatch order *)
}

(* Set the server up [setups] times (keeping the last), then time both
   connections for [seconds]. *)
let phase o w ~seed ~work ~traced ~seconds ~setups =
  let out k = Filename.concat work (Printf.sprintf "server-%d.out" k) in
  let rec set_up k times =
    let s, clients, conns, t = setup o w ~seed ~work ~traced ~out:(out k) in
    if k < setups then begin
      Array.iter Net.Client.close clients;
      ignore (stop_server s);
      set_up (k + 1) (t :: times)
    end
    else (s, clients, conns, List.rev (t :: times))
  in
  let s, clients, conns, setup_times = set_up 1 [] in
  let order = ref [] and m = Mutex.create () in
  let dispatched conn trace text =
    Mutex.protect m (fun () -> order := (conn, trace, text) :: !order)
  in
  let start = Stat.now () in
  let deadline = start +. seconds in
  let results = Array.make 2 [] in
  let threads =
    Array.mapi
      (fun i client ->
        Thread.create
          (fun () ->
            results.(i) <-
              drive w ~client ~conn_i:i ~conn:conns.(i) ~deadline ~traced
                ~dispatched)
          ())
      clients
  in
  Array.iter Thread.join threads;
  Array.iter Net.Client.close clients;
  let samples = List.concat (Array.to_list results) in
  let last = List.fold_left (fun acc sm -> Float.max acc sm.finished) start samples in
  let server_lines = stop_server s in
  {
    samples;
    elapsed = last -. start;
    setup_times;
    server_lines;
    dispatched = List.rev !order;
  }

(* ---- answer checks ---- *)

let rec inner_algorithm = function
  | Tempagg.Engine.Parallel { inner; _ } -> inner_algorithm inner
  | a -> a

(* The oracle: the same TSQL evaluated in this process on the generator's
   model, with an evaluation algorithm other than the planned one and the
   nested-loop join, rendered as the server renders a reply. *)
let oracle catalog text =
  let ( let* ) = Result.bind in
  let* q = Tsql.Parser.parse text in
  let* plan = Tsql.Semant.analyze catalog q in
  let algorithm =
    match inner_algorithm plan.Tsql.Semant.algorithm with
    | Tempagg.Engine.Sweep -> Tempagg.Engine.Aggregation_tree
    | _ -> Tempagg.Engine.Sweep
  in
  let* rel =
    Tsql.Eval.query ~algorithm ~join_strategy:Join.Engine.Nested_loop catalog text
  in
  Ok
    (List.filter (( <> ) "")
       (String.split_on_char '\n' (Tsql.Pretty.result_to_string rel)))

(* [_requests] holds the server's own telemetry, which no model
   predicts; its replies are checked for shape only: a table whose
   header starts with the grouping column. *)
let self_relation_reply = function
  | _ :: header :: _ -> String.starts_with ~prefix:"| kind" header
  | _ -> false

(* Walk each connection's statements in order, applying its writes to
   its own copy of the model, and compare every kept reply.  Returns the
   number of mismatches. *)
let check_answers (base : Mix.model) samples =
  let mismatches = ref 0 in
  List.iter
    (fun conn_i ->
      let m = { base with Mix.applied = [] } in
      let catalog = ref None in
      List.iter
        (fun sm ->
          if sm.conn = conn_i then
            match (sm.stmt.Mix.write, sm.payload) with
            | Some write, _ ->
                if sm.status = Done then begin
                  Mix.apply m write;
                  catalog := None
                end
            | None, Some payload ->
                let ok =
                  if sm.stmt.Mix.cls = "requests" then self_relation_reply payload
                  else begin
                    let cat =
                      match !catalog with
                      | Some c -> c
                      | None ->
                          let c = Mix.catalog m in
                          catalog := Some c;
                          c
                    in
                    match oracle cat sm.stmt.Mix.text with
                    | Ok expected when expected = payload -> true
                    | Ok expected ->
                        let rec first_diff i = function
                          | e :: es, p :: ps ->
                              if e = p then first_diff (i + 1) (es, ps) else (i, e, p)
                          | e :: _, [] -> (i, e, "<end>")
                          | [], p :: _ -> (i, "<end>", p)
                          | [], [] -> (i, "", "")
                        in
                        let i, e, p = first_diff 0 (expected, payload) in
                        log "e2e: connection %d statement %d, line %d: expected %S, got %S"
                          sm.conn sm.seq i e p;
                        false
                    | Error e ->
                        log "e2e: oracle failed on %s: %s" sm.stmt.Mix.text e;
                        false
                  end
                in
                if not ok then begin
                  incr mismatches;
                  log "e2e: wrong answer to %s" sm.stmt.Mix.text
                end
            | None, None -> ())
        samples)
    [ 0; 1 ];
  !mismatches

(* ---- metrics ---- *)

let ms_of samples =
  Array.of_list
    (List.filter_map
       (fun sm -> if sm.status = Done then Some (sm.latency *. 1000.) else None)
       samples)

let failures samples =
  List.fold_left
    (fun acc sm ->
      match sm.status with
      | Done -> acc
      | Refused why ->
          log "e2e: %s: %s" sm.stmt.Mix.text why;
          acc + 1)
    0 samples

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let partitioned o (w : Mix.t) =
  List.filter (fun (r : Mix.relation) -> r.shards > 0) (Mix.relations ~scale:o.scale w)

let prepare_partitions o w ~seed ~work =
  List.iter
    (fun (r : Mix.relation) ->
      Mix.write_partition ~seed ~dir:(Filename.concat work r.rname) r)
    (partitioned o w)

(* A fresh copy of the bulk-loaded partitions for one server lifetime
   (the ingest writer changes them). *)
let fresh_copy o w ~pristine ~dir =
  mkdir_p dir;
  List.iter
    (fun (r : Mix.relation) ->
      copy_dir (Filename.concat pristine r.rname) (Filename.concat dir r.rname))
    (partitioned o w);
  dir

let partition_mb o w ~dir =
  List.fold_left
    (fun acc (r : Mix.relation) ->
      acc +. (float_of_int (dir_bytes (Filename.concat dir r.rname)) /. 1048576.))
    0. (partitioned o w)

let end_to_end o w ~seed ~pristine ~work =
  let dir = fresh_copy o w ~pristine ~dir:(Filename.concat work "live") in
  let p =
    phase o w ~seed ~work:dir ~traced:false ~seconds:o.seconds ~setups:o.setups
  in
  let lat = ms_of p.samples in
  let rss_kb =
    float_of_string (Option.value (field p.server_lines "rss_kb") ~default:"0")
  in
  ( [ p.samples ],
    [
      ("p50_ms", Stat.median lat);
      ("p95_ms", Stat.percentile lat 95.);
      ("throughput_sps", float_of_int (Array.length lat) /. p.elapsed);
      ("setup_s", Stat.median (Array.of_list p.setup_times));
      ("server_rss_mb", rss_kb /. 1024.);
    ] )

(* Per-layer run: an untraced phase (the reference for the tracing
   overhead), a traced phase whose spans give the server-side layers,
   then an in-process replay of the traced phase's statements. *)
let per_layer o (w : Mix.t) ~seed ~pristine ~work =
  let plain_dir = fresh_copy o w ~pristine ~dir:(Filename.concat work "plain") in
  let plain =
    phase o w ~seed ~work:plain_dir ~traced:false ~seconds:(0.3 *. o.seconds)
      ~setups:1
  in
  let traced_dir = fresh_copy o w ~pristine ~dir:(Filename.concat work "traced") in
  let traced =
    phase o w ~seed ~work:traced_dir ~traced:true ~seconds:(0.4 *. o.seconds)
      ~setups:1
  in
  let disk_mb = partition_mb o w ~dir:traced_dir in
  (match field traced.server_lines "ring_dropped" with
  | Some "0" | None -> ()
  | Some n -> log "e2e: %s: trace ring dropped %s spans" w.name n);
  (* Server-side spans, one line per request. *)
  let spans = Hashtbl.create 1024 in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "span"; trace; request; queue; execute; self; outer; evals ] ->
          Hashtbl.replace spans trace
            (Array.map float_of_string [| request; queue; execute; self; outer; evals |])
      | _ -> ())
    traced.server_lines;
  let span_col i = Array.of_seq (Seq.map (fun a -> a.(i)) (Hashtbl.to_seq_values spans)) in
  let with_engine =
    Array.of_seq
      (Seq.filter_map
         (fun a -> if a.(5) > 0. then Some a.(3) else None)
         (Hashtbl.to_seq_values spans))
  in
  let wire =
    Array.of_list
      (List.filter_map
         (fun sm ->
           match Hashtbl.find_opt spans sm.trace with
           | Some a when sm.status = Done -> Some ((sm.latency *. 1e6) -. a.(0))
           | _ -> None)
         traced.samples)
  in
  (* The replay, on its own copy of the data as it was before the run. *)
  let replay_dir = fresh_copy o w ~pristine ~dir:(Filename.concat work "replay") in
  let stream = Filename.concat work "stream.tsv" in
  Out_channel.with_open_text stream (fun oc ->
      List.iter
        (fun (conn, trace, text) -> Printf.fprintf oc "%d\t%s\t%s\n" conn trace text)
        traced.dispatched);
  let out = Filename.concat work "replay.out" in
  let pid =
    spawn
      ([ "--child"; "replay" ] @ child_args o w ~seed ~work:replay_dir
      @ [
          "--stream"; stream; "--budget"; Printf.sprintf "%g" (0.3 *. o.seconds);
          "--out"; out;
        ])
      ~stdout:Unix.stderr
  in
  if wait pid <> Unix.WEXITED 0 then fail "replay child failed";
  let rows = In_channel.with_open_text out In_channel.input_lines in
  let stmts =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "stmt" :: trace :: kind :: nums ->
            Some (trace, kind, Array.of_list (List.map float_of_string nums))
        | _ -> None)
      rows
  in
  let totals =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "totals" :: nums -> Some (Array.of_list (List.map float_of_string nums))
        | _ -> None)
      rows
    |> Option.get
  in
  (* columns: 0 parse, 1 catalog, 2 analyze, 3 run, 4 record, 5 format,
     6 encode, 7 write, 8 rows, 9 bytes *)
  let col ?(reads_only = false) i =
    Array.of_list
      (List.filter_map
         (fun (_, kind, a) -> if reads_only && kind <> "r" then None else Some a.(i))
         stmts)
  in
  let rcol = col ~reads_only:true in
  let covered, executed =
    List.fold_left
      (fun (c, e) (trace, _, a) ->
        match Hashtbl.find_opt spans trace with
        | Some s ->
            (c +. a.(0) +. a.(1) +. a.(2) +. a.(3) +. a.(4) +. a.(5) +. a.(7), e +. s.(2))
        | None -> (c, e))
      (0., 0.) stmts
  in
  let per n d = if d > 0. then n /. d else 0. in
  let us = Stat.grouped_percentile in
  let reads, writes, joins = (totals.(0), totals.(1), totals.(2)) in
  let p50_plain = Stat.median (ms_of plain.samples)
  and p50_traced = Stat.median (ms_of traced.samples) in
  ( [ plain.samples; traced.samples ],
    [
      ("net.server.request_us.p50", us (span_col 0) 50.);
      ("net.server.request_us.p95", us (span_col 0) 95.);
      ("net.admission.queue_wait_us.p50", us (span_col 1) 50.);
      ("net.admission.queue_wait_us.p95", us (span_col 1) 95.);
      ("net.server.execute_us.p50", us (span_col 2) 50.);
      ("net.server.execute_us.p95", us (span_col 2) 95.);
      ("tempagg.engine.self_us.p50", us with_engine 50.);
      ("tempagg.engine.self_us.p95", us with_engine 95.);
      ("tempagg.engine.share", per (Stat.sum (span_col 4)) (Stat.sum (span_col 2)));
      ("net.wire_us.p50", Stat.median wire);
      ("tsql.parser.parse_us.p50", Stat.median (col 0));
      ("tsql.session.catalog_us.p50", Stat.median (rcol 1));
      ("tsql.session.catalog_us.p95", Stat.percentile (rcol 1) 95.);
      ("tsql.semant.analyze_us.p50", Stat.median (rcol 2));
      ("tsql.eval.run_us.p50", Stat.median (rcol 3));
      ("tsql.eval.run_us.p95", Stat.percentile (rcol 3) 95.);
      ("tsql.eval.rows_out.p50", Stat.median (rcol 8));
      ("tsql.pretty.format_us.p50", Stat.median (rcol 5));
      ("tsql.pretty.format_us.p95", Stat.percentile (rcol 5) 95.);
      ("tsql.pretty.reply_bytes.p50", Stat.median (rcol 9));
      ("net.protocol.encode_us.p50", Stat.median (rcol 6));
      ("storage.partition.pages_read_per_read", per totals.(3) reads);
      ("storage.partition.pages_written_per_write", per totals.(4) writes);
      ( "storage.partition.shards_scanned_ratio",
        per totals.(5) (totals.(5) +. totals.(6)) );
      ("storage.partition.splits", totals.(7));
      ("storage.partition.disk_mb", disk_mb);
      ("join.pairs_per_stmt", per totals.(8) joins);
      ("layer_coverage", per covered executed);
      ("tracing_overhead", (p50_traced /. p50_plain) -. 1.);
    ] )

(* Data generation, three set-ups and the timed phase(s), with room to
   spare; a run at the declared 20 s stays under 180 s. *)
let run_limit_s o = 60. +. (4. *. o.seconds)

let run_once o (w : Mix.t) ~seed =
  run_deadline := Stat.now () +. run_limit_s o;
  let work =
    Filename.concat ".e2ebench" (Printf.sprintf "%d-%s" (Unix.getpid ()) w.name)
  in
  rm_rf work;
  mkdir_p work;
  Fun.protect
    ~finally:(fun () ->
      kill_children ();
      rm_rf work)
    (fun () ->
      let pristine = Filename.concat work "pristine" in
      mkdir_p pristine;
      prepare_partitions o w ~seed ~work:pristine;
      let phases, metrics =
        if o.trace then per_layer o w ~seed ~pristine ~work
        else end_to_end o w ~seed ~pristine ~work
      in
      let model = Mix.model ~seed ~scale:o.scale w in
      (* Each phase starts from the bulk-loaded data, so each is checked
         against a fresh model. *)
      let mismatches =
        List.fold_left (fun acc ss -> acc + check_answers model ss) 0 phases
      in
      let samples = List.concat phases in
      let refused = failures samples in
      let attempted = List.length samples in
      {
        correct = mismatches = 0 && refused = 0 && attempted > 0;
        attempted;
        failed = mismatches + refused;
        metrics;
      })

(* ---- reporting ---- *)

let units (o : opts) = if o.trace then layer_metrics else e2e_metrics

let result_line o ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit) ->
                  ( name,
                    Json.Obj
                      [
                        ("value", Json.Num (List.assoc name metrics));
                        ("unit", Json.Str unit);
                      ] ))
                (units o)) );
       ])

let run_and_print (o : opts) (w : Mix.t) ~seed =
  log "e2e: %s seed %d%s" w.name seed (if o.trace then " (traced)" else "");
  let r = run_once o w ~seed in
  List.iter
    (fun (name, unit) ->
      Printf.printf "%-10s %-42s %16.6f %s\n%!" w.name name
        (List.assoc name r.metrics) unit)
    (units o);
  if not r.correct then
    Printf.printf "%-10s FAILED: %d of %d statements refused or wrong\n%!" w.name
      r.failed r.attempted;
  (if o.trace then
     let c = List.assoc "layer_coverage" r.metrics in
     if c < 0.8 || c > 1.25 then
       Printf.printf "%-10s note: layer_coverage %.3f is outside 0.8-1.25\n%!"
         w.name c);
  r

(* Runs every selected workload [repeats] times (repeat [i] uses seed
   [seed + i]), printing each metric as it is measured and, per workload,
   the result line with medians over the repeats.  Repeats are the outer
   loop, so a slow spell on the machine touches one run of each workload
   rather than every run of one.  Returns every value for --json and
   whether every run was correct. *)
let run_all o =
  let all_ok = ref true in
  let rounds =
    List.init o.repeats (fun i ->
        List.map (fun w -> run_and_print o w ~seed:(o.seed + i)) o.workloads)
  in
  let records =
    List.concat
      (List.mapi
         (fun k (w : Mix.t) ->
           let runs = List.map (fun round -> List.nth round k) rounds in
           let correct = List.for_all (fun r -> r.correct) runs in
           if not correct then all_ok := false;
           let values name = List.map (fun r -> List.assoc name r.metrics) runs in
           let medians =
             List.map
               (fun (name, _) -> (name, Stat.median (Array.of_list (values name))))
               (units o)
           in
           let line =
             result_line o ~correct
               ~attempted:(List.fold_left (fun a r -> a + r.attempted) 0 runs)
               ~failed:(List.fold_left (fun a r -> a + r.failed) 0 runs)
               medians
           in
           ignore (Json.parse line);
           print_endline line;
           List.map (fun (name, unit) -> (w.name, name, unit, values name)) (units o))
         o.workloads)
  in
  (records, !all_ok)

(* {"meta": {...}, "results": [...]}, one result per line so the file
   diffs cleanly. *)
let write_json o path records =
  let meta =
    Json.Obj
      [
        ("benchmark", Json.Str "e2ebench");
        ("seed", Json.Num (float_of_int o.seed));
        ("repeats", Json.Num (float_of_int o.repeats));
        ("seconds", Json.Num o.seconds);
        ("trace", Json.Bool o.trace);
        ("scale", Json.Num o.scale);
        ("setups", Json.Num (float_of_int o.setups));
      ]
  in
  let record (wl, name, unit, values) =
    Json.to_string
      (Json.Obj
         [
           ("workload", Json.Str wl);
           ("metric", Json.Str name);
           ("unit", Json.Str unit);
           ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
         ])
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\"meta\": %s,\n \"results\": [\n  %s\n]}\n"
        (Json.to_string meta)
        (String.concat ",\n  " (List.map record records)))

(* ---- --compare ---- *)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Medians are compared against the metric's bound from BENCHMARK.json.
   When the old side's own spread (quartile distance over median) is
   wider than the bound, a difference cannot be told from noise: the
   verdict is unresolved unless every new run beats every old one. *)
let verdict ~bound ~lower old_v new_v =
  let m_old = Stat.median old_v and m_new = Stat.median new_v in
  let q1, q3 = Stat.quartiles old_v in
  let spread = (q3 -. q1) /. Float.abs m_old in
  let worse_by = (if lower then m_new -. m_old else m_old -. m_new) /. Float.abs m_old in
  let beats a b = if lower then a < b else a > b in
  let all_better =
    Array.for_all (fun n -> Array.for_all (fun o -> beats n o) old_v) new_v
  in
  if spread > bound then if all_better then Better else Unresolved
  else if worse_by > bound then Worse
  else if -.worse_by > bound then Better
  else Unchanged

(* What a result file was measured under; two files are comparable only
   when these agree (the seeds and the number of repeats may differ). *)
let comparable_meta = [ "benchmark"; "seconds"; "trace"; "scale"; "setups" ]

(* Refuses (exit 2) files that cannot be compared: different measuring
   conditions, different workload x metric sets, or metrics without a
   bound (per-layer results have none). *)
let compare_files ~old_path ~new_path =
  let refuse fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline ("e2e: --compare: " ^ msg);
        exit 2)
      fmt
  in
  let bench = Json.of_file "BENCHMARK.json" in
  let bounds =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          (Json.to_num (Json.member "bound" m), Json.to_str (Json.member "better" m) = "lower") ))
      (Json.to_list (Json.member "end_to_end" bench))
  in
  let old_f = Json.of_file old_path and new_f = Json.of_file new_path in
  List.iter
    (fun k ->
      let a = Json.member k (Json.member "meta" old_f)
      and b = Json.member k (Json.member "meta" new_f) in
      if a <> b then
        refuse "%s differs: %s in %s, %s in %s" k (Json.to_string a) old_path
          (Json.to_string b) new_path)
    comparable_meta;
  let load f =
    List.map
      (fun r ->
        ( (Json.to_str (Json.member "workload" r), Json.to_str (Json.member "metric" r)),
          Array.of_list (List.map Json.to_num (Json.to_list (Json.member "values" r))) ))
      (Json.to_list (Json.member "results" f))
  in
  let old_r = load old_f and new_r = load new_f in
  if List.sort compare (List.map fst old_r) <> List.sort compare (List.map fst new_r)
  then refuse "the two files hold different workload x metric sets";
  if old_r = [] then refuse "no results to compare";
  List.iter
    (fun ((wl, metric), old_v) ->
      if not (List.mem_assoc metric bounds) then
        refuse "%s has no bound in BENCHMARK.json" metric;
      if Array.length old_v = 0 || Array.length (List.assoc (wl, metric) new_r) = 0
      then refuse "%s %s has no values" wl metric)
    old_r;
  Printf.printf "%-10s %-15s %12s %25s %12s %25s %8s %7s  %s\n" "workload" "metric"
    "old median" "old q1..q3" "new median" "new q1..q3" "spread" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun ((wl, metric), old_v) ->
      let new_v = List.assoc (wl, metric) new_r in
      let bound, lower = List.assoc metric bounds in
      let v = verdict ~bound ~lower old_v new_v in
      if v = Worse then incr worse;
      let q1, q3 = Stat.quartiles old_v and n1, n3 = Stat.quartiles new_v in
      let mo = Stat.median old_v in
      Printf.printf "%-10s %-15s %12.4f %12.4f..%-12.4f %12.4f %12.4f..%-12.4f %8.4f %7.3f  %s\n"
        wl metric mo q1 q3 (Stat.median new_v) n1 n3
        ((q3 -. q1) /. Float.abs mo) bound (verdict_name v))
    old_r;
  if !worse > 0 then exit 1

(* ---- --smoke ---- *)

(* Every workload at about 1% size, end-to-end and traced: exercises the
   child processes, the answer checks and the result layout, and checks
   that each metric BENCHMARK.json names is reported with its unit. *)
let smoke () =
  let o =
    {
      workloads = Mix.all;
      seed = 1;
      seconds = 0.6;
      trace = false;
      repeats = 1;
      json = None;
      scale = 0.01;
      setups = 1;
    }
  in
  if not (Sys.file_exists "BENCHMARK.json") then
    fail "--smoke needs BENCHMARK.json in the current directory";
  let bench = Json.of_file "BENCHMARK.json" in
  let declared key =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member key bench))
  in
  let ok = ref true in
  List.iter
    (fun trace ->
      let o = { o with trace } in
      let _, correct = run_all o in
      if not correct then ok := false;
      if declared (if trace then "per_layer" else "end_to_end") <> units o then begin
        log "e2e: BENCHMARK.json metrics differ from the reported ones";
        ok := false
      end)
    [ false; true ];
  if not !ok then exit 1

(* ---- command line ---- *)

let usage =
  "usage: e2e.exe [--workload NAME[,NAME...]] [--seed N] [--seconds S] \
   [--trace 0|1] [--repeats R] [--json OUT]\n\
  \       e2e.exe --smoke\n\
  \       e2e.exe --compare OLD.json NEW.json\n\
   workloads: dashboard export ingest analytics (default: all)"

(* The load generator's flags. *)
let parent_flags =
  [ "--workload"; "--seed"; "--seconds"; "--trace"; "--repeats"; "--json" ]

(* The flags the load generator passes to its children, accepted only
   after [--child ROLE]. *)
let child_flags =
  [ "--workload"; "--seed"; "--trace"; "--scale"; "--work"; "--out"; "--stream"; "--budget" ]

let bad_usage msg =
  prerr_endline ("e2e: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_flags known args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when List.mem k known -> go ((k, v) :: acc) rest
    | k :: _ -> bad_usage ("unexpected argument " ^ k)
  in
  let flags = go [] args in
  let get k default = Option.value (List.assoc_opt k flags) ~default in
  let int k default =
    match int_of_string_opt (get k (string_of_int default)) with
    | Some n when n >= 0 -> n
    | _ -> bad_usage (k ^ " needs a non-negative integer")
  in
  let float k default =
    match float_of_string_opt (get k (string_of_float default)) with
    | Some f when f > 0. -> f
    | _ -> bad_usage (k ^ " needs a positive number")
  in
  let workloads =
    match get "--workload" "all" with
    | "all" -> Mix.all
    | names ->
        List.map
          (fun n ->
            match Mix.find n with
            | Some w -> w
            | None -> bad_usage ("unknown workload " ^ n))
          (String.split_on_char ',' names)
  in
  let trace =
    match get "--trace" "0" with
    | "0" -> false
    | "1" -> true
    | _ -> bad_usage "--trace takes 0 or 1"
  in
  (get, int, float, workloads, trace)

let child role args =
  let get, int, float, workloads, trace = parse_flags child_flags args in
  let w =
    match workloads with [ w ] -> w | _ -> bad_usage "a child serves one workload"
  in
  let seed = int "--seed" 1 and scale = float "--scale" 1. in
  let work = get "--work" "." and out = get "--out" "child.out" in
  match role with
  | "server" -> exit (Child.server ~seed ~scale ~work ~traced:trace ~out w)
  | "replay" ->
      exit
        (Child.replay ~seed ~scale ~work ~stream:(get "--stream" "")
           ~budget_s:(float "--budget" 1.) ~out w)
  | _ -> bad_usage ("unknown child role " ^ role)

let () =
  (* A peer that closes mid-write is an error to count, not a reason to
     die. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "--smoke" ] ->
      start_watchdog ();
      smoke ()
  | [ "--compare"; old_path; new_path ] -> compare_files ~old_path ~new_path
  | "--child" :: role :: args -> child role args
  | args -> (
      let get, int, float, workloads, trace = parse_flags parent_flags args in
      let o =
        {
          workloads;
          seed = int "--seed" 1;
          seconds = float "--seconds" 20.;
          trace;
          repeats = max 1 (int "--repeats" 1);
          json = (match get "--json" "" with "" -> None | path -> Some path);
          scale = 1.;
          setups = 3;
        }
      in
      start_watchdog ();
      match run_all o with
      | records, ok ->
          Option.iter (fun path -> write_json o path records) o.json;
          if not ok then exit 1
      | exception e ->
          kill_children ();
          prerr_endline ("e2e: " ^ Printexc.to_string e);
          exit 1)
