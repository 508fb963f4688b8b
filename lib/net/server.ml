type transport = Tcp of int | Stdio

type config = {
  transport : transport;
  domains : int;
  queue_depth : int;
  degrade_watermark : int option;
  drain_timeout_ms : int;
  idle_timeout_ms : int;
  max_connections : int;
  memory_budget : int option;
  deadline_ms : float option;
  degrade_deadline_ms : float option;
  on_error : Tempagg.Engine.on_error option;
  cache_capacity : int;
  adaptive : bool;
  data_dir : string option;
  partitions : (string * string) list;
  split_threshold : int option;
  slowlog : Obs.Slowlog.t option;
  recorder_out : string option;
  scrape_every_ms : int option;
      (* Self-scrape period; None turns the scraper (and the [_metrics]
         / [_requests] self-relations) off. *)
  scrape_config : Selfmon.Scrape.config option;
      (* Retention/downsampling overrides; the period above wins over
         its [tick_us]. *)
  slo : Obs.Slo.objective list;
      (* Objectives evaluated on every scrape tick (needs scraping). *)
}

let default_config =
  {
    transport = Tcp 7411;
    domains = 4;
    queue_depth = 64;
    degrade_watermark = None;
    drain_timeout_ms = 5_000;
    idle_timeout_ms = 60_000;
    max_connections = 1024;
    memory_budget = None;
    deadline_ms = None;
    degrade_deadline_ms = None;
    on_error = None;
    cache_capacity = 128;
    adaptive = true;
    data_dir = None;
    partitions = [];
    split_threshold = None;
    slowlog = None;
    recorder_out = None;
    scrape_every_ms = None;
    scrape_config = None;
    slo = [];
  }

type report = {
  accepted : int;
  requests : int;
  shed : int;
  errors : int;
  degraded : int;
  timed_out : int;
  elapsed_s : float;
  drained : bool;
  metrics : Obs.Metrics.t;
  scrapes : int;  (* self-scrape ticks taken (0 with scraping off) *)
  slo_summary : string option;
      (* Final rendered burn-rate report, alerts and worst windows
         included — what the serve report prints below its totals. *)
}

(* A statement handed to a worker, carrying its request-trace context:
   the trace id, the request root span (opened at dispatch, closed at
   completion) and the queue-wait span (opened at submit, closed by
   whichever worker takes the job). *)
type job = {
  j_conn : int;
  j_line : string;
  j_session : Tsql.Session.t;
  j_degraded : bool;
  j_trace : string;
  j_root : int;
  j_queue : int;
}

(* A worker's finished reply, travelling back to the event loop already
   in wire form: the loop only queues its bytes. *)
type completion = {
  c_conn : int;
  c_wire : string;
  c_error : bool;  (* answered ERR *)
  c_degraded : bool;  (* answered OK degraded *)
  c_kind : string;
  c_statement : string;
  c_elapsed_us : int;
  c_trace : string;
  c_root : int;
  c_join : string option;
}

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;  (* read side *)
  c_wfd : Unix.file_descr;  (* write side (differs from c_fd on Stdio) *)
  c_tcp : bool;  (* close fds on teardown *)
  c_inbuf : Buffer.t;
  mutable c_pending : string list;  (* complete lines awaiting dispatch *)
  c_out : string Queue.t;  (* encoded replies not yet fully written *)
  mutable c_out_off : int;  (* bytes of the queue's head already written *)
  mutable c_outstanding : bool;  (* a worker owns this conn's request *)
  mutable c_last_us : int;
  mutable c_eof : bool;  (* no more input; still serving buffered lines *)
  mutable c_closing : bool;  (* discard pending, flush output, close *)
  mutable c_seq : int;  (* statements dispatched, for minted request ids *)
  mutable c_scrape_version : int;
      (* Scraper version the session's self-relations reflect; refreshed
         on the event loop before a statement is submitted, the one
         point where no worker owns the session. *)
  c_session : Tsql.Session.t;
}

type t = {
  cfg : config;
  catalog : Tsql.Catalog.t;
  listen_fd : Unix.file_descr option;
  bound_port : int option;
  admission : job Admission.t;
  stop_requested : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  comp_mutex : Mutex.t;
  mutable completions : completion list;  (* newest first *)
  conns : (int, conn) Hashtbl.t;
  mutable next_conn_id : int;
  registry : Obs.Metrics.t;
  dump_requested : bool Atomic.t;  (* SIGUSR1 asked for a recorder dump *)
  scraper : Selfmon.Scrape.t option;
  mutable started_us : int;  (* set by [run]; feeds the uptime gauge *)
  mutable slo_text : string;
      (* Cached SHOW SLO / SLO-verb body.  Workers read it without a
         lock: a string-field read is a single atomic load, so they see
         some complete recent text, refreshed on the event loop. *)
  mutable slo_report : Obs.Slo.report option;  (* latest evaluation *)
}

let max_line_bytes = 65_536

let create ?(config = default_config) catalog =
  let listen_fd, bound_port =
    match config.transport with
    | Stdio -> (None, None)
    | Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_any, port));
        Unix.listen fd 128;
        Unix.set_nonblock fd;
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (Some fd, Some bound)
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let registry = Obs.Metrics.create () in
  {
    cfg = config;
    catalog;
    listen_fd;
    bound_port;
    admission =
      Admission.create ?degrade_watermark:config.degrade_watermark
        ~workers:config.domains ~queue_depth:config.queue_depth ();
    stop_requested = Atomic.make false;
    wake_r;
    wake_w;
    comp_mutex = Mutex.create ();
    completions = [];
    conns = Hashtbl.create 64;
    next_conn_id = 0;
    registry;
    dump_requested = Atomic.make false;
    scraper =
      (match config.scrape_every_ms with
      | None -> None
      | Some ms ->
          let base =
            Option.value config.scrape_config
              ~default:Selfmon.Scrape.default_config
          in
          Some
            (Selfmon.Scrape.create
               ~config:{ base with Selfmon.Scrape.tick_us = ms * 1000 }
               registry));
    started_us = Obs.Trace.now_us ();
    slo_text = "no SLO objectives configured (serve with --slo FILE)";
    slo_report = None;
  }

let port t = t.bound_port

let wake t =
  (* Best-effort: a full pipe already guarantees a pending wakeup, and a
     closed one means the loop is gone — neither may raise (this runs
     from worker domains and signal handlers). *)
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

let shutdown t =
  Atomic.set t.stop_requested true;
  wake t

(* ---- metrics ---- *)

let counter t name help = Obs.Metrics.counter t.registry ~help name
let gauge t name help = Obs.Metrics.gauge t.registry ~help name

let m_accepted t =
  counter t "tempagg_net_accepted_total" "Connections accepted"

let m_active t = gauge t "tempagg_net_active_connections" "Open connections"

let m_shed t =
  counter t "tempagg_net_shed_total" "Requests refused with BUSY"

let m_timed_out t =
  counter t "tempagg_net_timed_out_total" "Connections reaped for idleness"

let m_errors t kind =
  Obs.Metrics.counter t.registry
    ~help:"Statements answered with ERR, by statement kind"
    ~labels:[ ("kind", kind) ]
    "tempagg_net_errors_total"

let m_degraded t =
  counter t "tempagg_net_degraded_total" "Replies marked degraded"

let m_queued t = gauge t "tempagg_net_queued" "Requests waiting in admission"
let m_inflight t = gauge t "tempagg_net_in_flight" "Requests being executed"

let m_requests t kind =
  Obs.Metrics.counter t.registry ~help:"Admitted statements by kind"
    ~labels:[ ("kind", kind) ]
    "tempagg_net_requests_total"

let m_latency t kind =
  Obs.Metrics.histogram t.registry
    ~help:"Request latency in microseconds, by statement kind"
    ~labels:[ ("kind", kind) ]
    "tempagg_net_latency_us"

let refresh_admission_gauges t =
  Obs.Metrics.set_int (m_queued t) (Admission.queued t.admission);
  Obs.Metrics.set_int (m_inflight t) (Admission.in_flight t.admission)

(* Everything a scrape should see beyond the live counters: binary
   identity, uptime, flight-recorder pressure and the process-wide join
   counters. *)
let refresh_scrape_metrics t =
  refresh_admission_gauges t;
  Obs.Metrics.set
    (gauge t "tempagg_uptime_seconds"
       "Seconds since the server started (monotonic clock)")
    (float_of_int (Obs.Trace.now_us () - t.started_us) /. 1e6);
  Obs.Build_info.to_metrics t.registry;
  Obs.Recorder.to_metrics t.registry;
  Join.Telemetry.to_metrics t.registry

(* One connection's session gauges — live maintenance, the statistics
   store and one set per partitioned relation — rendered into a scratch
   registry.  Runs on the event loop while no worker owns the session:
   [dispatch] only reads a line from that state. *)
let session_exposition session =
  let registry = Obs.Metrics.create () in
  Live.Stats.to_metrics registry (Tsql.Session.stats session);
  Obs.Stats.store_to_metrics registry (Tsql.Session.store session);
  (* Partitioned-storage gauges, one set per partitioned relation. *)
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
    (Tsql.Session.partitions session);
  Obs.Metrics.expose registry

(* ---- self-scraping and SLO evaluation (event loop only) ---- *)

(* One scrape tick: refresh the derived gauges, sample the registry into
   the self-relations, then re-evaluate the objectives against them —
   through the engine itself, so the SLO verdicts exercise the same
   aggregation path the verdicts are about.  Also the point where the
   worker-visible SHOW SLO text is rebuilt. *)
let scrape_tick t scraper ~now =
  refresh_scrape_metrics t;
  Selfmon.Scrape.scrape ~now_us:now scraper;
  match t.cfg.slo with
  | [] -> ()
  | objectives -> (
      match Selfmon.Monitor.evaluate ~now_us:now scraper objectives with
      | Ok report ->
          Obs.Slo.to_metrics t.registry report;
          t.slo_report <- Some report;
          t.slo_text <- Obs.Slo.report_to_string report
      | Error msg -> t.slo_text <- "SLO evaluation failed: " ^ msg)

(* Bring one connection's self-relations up to the scraper's current
   version.  Called on the event loop while no worker owns the session
   (dispatch only submits from that state), so the swap cannot race a
   statement. *)
let refresh_self_relations t conn =
  match t.scraper with
  | None -> ()
  | Some scraper ->
      let v = Selfmon.Scrape.version scraper in
      if conn.c_scrape_version <> v then begin
        conn.c_scrape_version <- v;
        Tsql.Session.replace_base conn.c_session Selfmon.Scrape.metrics_name
          (Selfmon.Scrape.metrics_relation scraper);
        Tsql.Session.replace_base conn.c_session Selfmon.Scrape.requests_name
          (Selfmon.Scrape.requests_relation scraper)
      end

(* ---- worker domains ---- *)

(* A statement's reply in wire form.  A result relation is rendered and
   framed in one pass under a "format" span, so traces show the reply
   cost next to the engine's. *)
let encode_reply ~trace = function
  | Ok (Tsql.Session.Rows rel, degraded) ->
      let span =
        Obs.Trace.open_span ?parent:(Obs.Trace.current ()) ~trace
          ~attrs:[ ("rows", string_of_int (Relation.Trel.cardinality rel)) ]
          "format"
      in
      let wire = Protocol.encode_rows ~degraded ~trace:(Some trace) rel in
      Obs.Trace.close_span
        ~attrs:[ ("bytes", string_of_int (String.length wire)) ]
        span;
      wire
  | Ok (Tsql.Session.Ack msg, degraded) ->
      Protocol.encode
        (Protocol.Ok_reply
           {
             degraded;
             trace = Some trace;
             payload = String.split_on_char '\n' msg;
           })
  | Error msg -> Protocol.encode (Protocol.Err msg)

(* Execute one admitted request.  Runs on a worker domain: the only
   shared state it touches is the job's own session (one outstanding
   request per connection serializes access) and the completion queue. *)
let execute t job =
  let t0 = Obs.Trace.now_us () in
  (* The queue wait ends the moment a worker picks the job up; the
     span was opened on the event loop at submit time. *)
  Obs.Trace.close_span job.j_queue;
  let body () =
    match Protocol.sleep_request job.j_line with
    | Some ms ->
        Unix.sleepf (ms /. 1000.);
        ( "sleep",
          Ok
            ( Tsql.Session.Ack (Printf.sprintf "slept %g ms" ms),
              job.j_degraded ),
          None )
    | None -> (
        match Tsql.Parser.parse_statement job.j_line with
        | Error msg -> ("parse-error", Error msg, None)
        | Ok stmt -> (
            let kind = Tsql.Serve.kind_of stmt in
            (* Degraded requests trade the planned fast path for a
               bounded one: at least a Fallback recovery policy (Skip
               stays Skip — it is already lossier) and a tighter
               deadline, so saturated work cannot occupy a worker
               indefinitely. *)
            let on_error =
              if job.j_degraded then
                match t.cfg.on_error with
                | Some Tempagg.Engine.Skip -> Some Tempagg.Engine.Skip
                | _ -> Some Tempagg.Engine.Fallback
              else t.cfg.on_error
            in
            let deadline_ms =
              if job.j_degraded then
                match t.cfg.degrade_deadline_ms with
                | Some d -> Some d
                | None -> (
                    match t.cfg.deadline_ms with
                    | Some d -> Some (d /. 2.)
                    | None -> Some 500.)
              else t.cfg.deadline_ms
            in
            match
              Tsql.Session.exec_statement ?memory_budget:t.cfg.memory_budget
                ?deadline_ms ?on_error job.j_session stmt
            with
            | Ok outcome ->
                let degraded =
                  job.j_degraded
                  || Tsql.Session.last_degradations job.j_session > 0
                in
                ( kind,
                  Ok (outcome, degraded),
                  Tsql.Session.last_join job.j_session )
            | Error msg -> (kind, Error msg, None)
            | exception e ->
                (* A worker must never die: any stray evaluation
                   exception becomes a structured per-statement error. *)
                ( kind,
                  Error ("internal error: " ^ Printexc.to_string e),
                  None )))
  in
  (* Run under an "execute" span parented to the request root, so every
     engine/storage/join span the statement records on this domain (and
     on Parallel shard domains) nests under the request's trace.  The
     reply is encoded here too, spreading that work over the workers. *)
  let kind, reply, wire, join =
    Obs.Trace.with_span
      ?parent:(if job.j_root = 0 then None else Some job.j_root)
      ~trace:job.j_trace
      ~attrs:[ ("conn", string_of_int job.j_conn) ]
      "execute"
      (fun () ->
        let kind, reply, join = body () in
        (kind, reply, encode_reply ~trace:job.j_trace reply, join))
  in
  {
    c_conn = job.j_conn;
    c_wire = wire;
    c_error = Result.is_error reply;
    c_degraded =
      (match reply with Ok (_, degraded) -> degraded | Error _ -> false);
    c_kind = kind;
    c_statement = job.j_line;
    c_elapsed_us = Obs.Trace.now_us () - t0;
    c_trace = job.j_trace;
    c_root = job.j_root;
    c_join = join;
  }

let worker_loop t () =
  let rec loop () =
    match Admission.take t.admission with
    | None -> ()
    | Some job ->
        let completion = execute t job in
        Admission.finish t.admission;
        Mutex.lock t.comp_mutex;
        t.completions <- completion :: t.completions;
        Mutex.unlock t.comp_mutex;
        wake t;
        loop ()
  in
  loop ()

(* ---- connections ---- *)

(* TCP connections get private subdirectories; Stdio's one connection
   gets the directory itself, so [serve --script F --data-dir D] leaves
   table [t] at [D/t]. *)
let conn_data_dir t id =
  match t.cfg.transport with
  | Stdio -> t.cfg.data_dir
  | Tcp _ ->
      Option.map
        (fun dir -> Filename.concat dir (Printf.sprintf "conn-%d" id))
        t.cfg.data_dir

let new_session t id =
  (* A private statistics store per connection: worker domains then
     share nothing mutable across connections, and ANALYZE results are
     scoped to the connection that ran them.  Partition bindings are
     loaded per session for the same reason — no shared handles. *)
  let session =
    Tsql.Session.create ~cache_capacity:t.cfg.cache_capacity
      ~adaptive:t.cfg.adaptive
      ?data_dir:(conn_data_dir t id)
      ?split_threshold:t.cfg.split_threshold
      (Tsql.Catalog.with_store t.catalog (Obs.Stats.create_store ()))
  in
  List.iter
    (fun (name, dir) ->
      Tsql.Session.add_partition session name (Storage.Partition.load dir))
    t.cfg.partitions;
  Tsql.Session.set_introspection ~slo:(fun () -> t.slo_text) session;
  session

let add_conn t ~tcp ~fd ~wfd =
  let id = t.next_conn_id in
  t.next_conn_id <- id + 1;
  let conn =
    {
      c_id = id;
      c_fd = fd;
      c_wfd = wfd;
      c_tcp = tcp;
      c_inbuf = Buffer.create 256;
      c_pending = [];
      c_out = Queue.create ();
      c_out_off = 0;
      c_outstanding = false;
      c_last_us = Obs.Trace.now_us ();
      c_eof = false;
      c_closing = false;
      c_seq = 0;
      c_scrape_version = -1;  (* force a refresh before the first statement *)
      c_session = new_session t id;
    }
  in
  refresh_self_relations t conn;
  Hashtbl.replace t.conns id conn;
  Obs.Metrics.inc (m_accepted t);
  Obs.Metrics.set_int (m_active t) (Hashtbl.length t.conns);
  conn

let close_conn t conn =
  if Hashtbl.mem t.conns conn.c_id then begin
    Hashtbl.remove t.conns conn.c_id;
    Obs.Metrics.set_int (m_active t) (Hashtbl.length t.conns);
    if conn.c_tcp then try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
  end

let send conn text = if text <> "" then Queue.push text conn.c_out

(* A line refused on the event loop before it has a statement kind — an
   oversized line, a malformed TRACE prefix or dump id.  It counts as an
   error like any other ERR, so a script holding one still fails. *)
let reject t conn msg =
  Obs.Metrics.inc (m_errors t "protocol");
  send conn (Protocol.encode (Protocol.Err msg))

(* A connection is finished once no worker owns it, its output is
   flushed, and it either asked to close (QUIT, oversize, reap) or hit
   EOF with nothing left to dispatch. *)
let maybe_close t conn =
  if
    Hashtbl.mem t.conns conn.c_id
    && (not conn.c_outstanding)
    && Queue.is_empty conn.c_out
    && (conn.c_closing || (conn.c_eof && conn.c_pending = []))
  then close_conn t conn

(* Split buffered input into complete lines; the partial tail stays. *)
let extract_lines conn =
  let data = Buffer.contents conn.c_inbuf in
  match String.rindex_opt data '\n' with
  | None -> []
  | Some last ->
      Buffer.clear conn.c_inbuf;
      Buffer.add_string conn.c_inbuf
        (String.sub data (last + 1) (String.length data - last - 1));
      String.split_on_char '\n' (String.sub data 0 last)

(* ---- dispatch ---- *)

let observe_completion t (c : completion) =
  if c.c_degraded then Obs.Metrics.inc (m_degraded t);
  if c.c_error then Obs.Metrics.inc (m_errors t c.c_kind);
  let elapsed_ms = float_of_int c.c_elapsed_us /. 1000. in
  let slow =
    match t.cfg.slowlog with
    | Some log -> elapsed_ms >= Obs.Slowlog.threshold_ms log
    | None -> false
  in
  (* Close the request root before deciding retention, so the root span
     itself is in the ring when the recorder copies the trace out. *)
  let outcome =
    if c.c_error then "error"
    else if c.c_degraded then "degraded"
    else if slow then "slow"
    else "ok"
  in
  Obs.Trace.close_span
    ~attrs:
      (("outcome", outcome)
      :: (match c.c_join with Some j -> [ ("join", j) ] | None -> []))
    c.c_root;
  if c.c_error || c.c_degraded || slow then
    Obs.Recorder.pin ~trace:c.c_trace ~reason:outcome;
  Obs.Metrics.inc (m_requests t c.c_kind);
  Obs.Histogram.observe (m_latency t c.c_kind) (float_of_int c.c_elapsed_us);
  match t.cfg.slowlog with
  | Some log when slow ->
      (* The entry's profile is this request's tree in the trace pinned
         above (a client may reuse a trace id): which layer took the
         time and, under "plan", why. *)
      let detail, span_labels =
        match Obs.Recorder.find c.c_trace with
        | Some p ->
            ( Some (Obs.Trace.tree_to_string ~root:c.c_root p.p_spans),
              List.map (fun (s : Obs.Trace.span) -> s.label) p.p_spans )
        | None -> (None, [])
      in
      ignore
        (Obs.Slowlog.observe log ~kind:c.c_kind ~statement:c.c_statement
           ~elapsed_ms ?detail ~span_labels ?join:c.c_join ~trace:c.c_trace ())
  | _ -> ()

(* Dispatch a connection's buffered lines until a statement goes
   outstanding (or the connection starts closing).  Control verbs are
   answered inline — PING works even at full saturation, which is what
   makes it a useful liveness probe. *)
let rec dispatch t conn =
  if (not conn.c_outstanding) && not conn.c_closing then
    match conn.c_pending with
    | [] -> ()
    | line :: rest ->
        conn.c_pending <- rest;
        let line = Protocol.strip_request line in
        if line = "" || (String.length line >= 2 && String.sub line 0 2 = "--")
        then dispatch t conn
        else if String.uppercase_ascii line = "PING" then begin
          send conn (Protocol.encode Protocol.Pong);
          dispatch t conn
        end
        else if String.uppercase_ascii line = "QUIT" then begin
          send conn (Protocol.encode Protocol.Bye);
          conn.c_closing <- true
        end
        else if String.length line > max_line_bytes then begin
          reject t conn
            (Printf.sprintf "request exceeds %d bytes" max_line_bytes);
          dispatch t conn
        end
        else if Protocol.slo_request line then begin
          (* Latest burn-rate report inline, like METRICS: the alerting
             path must answer even at full saturation. *)
          let payload =
            List.filter
              (fun l -> l <> "")
              (String.split_on_char '\n' t.slo_text)
          in
          send conn
            (Protocol.encode
               (Protocol.Ok_reply { degraded = false; trace = None; payload }));
          dispatch t conn
        end
        else
          match Protocol.trace_dump_request line with
          | Some (Error msg) ->
              reject t conn msg;
              dispatch t conn
          | Some (Ok trace) ->
              let payload =
                List.filter
                  (fun l -> l <> "")
                  (String.split_on_char '\n' (Obs.Recorder.dump ?trace ()))
              in
              send conn
                (Protocol.encode
                   (Protocol.Ok_reply
                      { degraded = false; trace; payload }));
              dispatch t conn
          | None -> (
              match Protocol.split_trace line with
              | Error msg ->
                  reject t conn msg;
                  dispatch t conn
              | Ok (supplied, stmt) when Protocol.metrics_request stmt ->
                  (* METRICS and SHOW METRICS answer inline, like PING: a
                     scrape must work even when every worker is busy.
                     The shared registry comes first, then the asking
                     connection's own session gauges. *)
                  refresh_scrape_metrics t;
                  let payload =
                    List.filter
                      (fun l -> l <> "")
                      (String.split_on_char '\n'
                         (Obs.Metrics.expose t.registry
                         ^ session_exposition conn.c_session))
                  in
                  send conn
                    (Protocol.encode
                       (Protocol.Ok_reply
                          { degraded = false; trace = supplied; payload }));
                  dispatch t conn
              | Ok (supplied, stmt) ->
                  (* The last race-free moment to swap in fresh
                     self-relations: no worker owns this session yet. *)
                  refresh_self_relations t conn;
                  (* The request id: client-chosen via the TRACE prefix,
                     else minted here — every statement gets one. *)
                  let trace =
                    match supplied with
                    | Some id -> id
                    | None ->
                        Printf.sprintf "r%d-%d" conn.c_id conn.c_seq
                  in
                  conn.c_seq <- conn.c_seq + 1;
                  let root =
                    Obs.Trace.open_span ~trace
                      ~attrs:
                        [
                          ("conn", string_of_int conn.c_id);
                          ( "statement",
                            if String.length stmt > 120 then
                              String.sub stmt 0 120 ^ "..."
                            else stmt );
                        ]
                      "request"
                  in
                  match
                    Admission.submit t.admission (fun ~degraded ->
                        {
                          j_conn = conn.c_id;
                          j_line = stmt;
                          j_session = conn.c_session;
                          j_degraded = degraded;
                          j_trace = trace;
                          j_root = root;
                          j_queue =
                            Obs.Trace.open_span ~trace ~parent:root
                              "queue-wait";
                        })
                  with
                  | Admission.Shed reason ->
                      Obs.Metrics.inc (m_shed t);
                      Obs.Trace.close_span
                        ~attrs:[ ("outcome", "shed"); ("reason", reason) ]
                        root;
                      Obs.Recorder.pin ~trace ~reason:"shed";
                      send conn (Protocol.encode (Protocol.Busy reason));
                      dispatch t conn
                  | Admission.Admitted _ -> conn.c_outstanding <- true)

(* ---- the event loop ---- *)

let now_us () = Obs.Trace.now_us ()

let handle_completions t =
  Mutex.lock t.comp_mutex;
  let batch = List.rev t.completions in
  t.completions <- [];
  Mutex.unlock t.comp_mutex;
  List.iter
    (fun c ->
      observe_completion t c;
      match Hashtbl.find_opt t.conns c.c_conn with
      | None -> ()  (* connection died while the worker ran *)
      | Some conn ->
          conn.c_outstanding <- false;
          send conn c.c_wire;
          dispatch t conn;
          maybe_close t conn)
    batch

let drain_wake_pipe t =
  let buf = Bytes.create 64 in
  let rec loop () =
    match Unix.read t.wake_r buf 0 64 with
    | n when n > 0 -> loop ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  loop ()

let accept_burst t fd =
  let rec loop () =
    match Unix.accept fd with
    | cfd, _addr ->
        Unix.set_nonblock cfd;
        if Hashtbl.length t.conns >= t.cfg.max_connections then begin
          (* Over capacity: structured refusal, then close.  Counted as
             accepted + shed so saturation is visible in the metrics. *)
          Obs.Metrics.inc (m_accepted t);
          Obs.Metrics.inc (m_shed t);
          let refusal =
            Protocol.encode
              (Protocol.Busy
                 (Printf.sprintf "too many connections (max %d)"
                    t.cfg.max_connections))
          in
          (try
             ignore (Unix.write_substring cfd refusal 0 (String.length refusal))
           with Unix.Unix_error _ -> ());
          try Unix.close cfd with Unix.Unix_error _ -> ()
        end
        else ignore (add_conn t ~tcp:true ~fd:cfd ~wfd:cfd);
        loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let read_conn t conn =
  let buf = Bytes.create 4096 in
  match Unix.read conn.c_fd buf 0 4096 with
  | 0 ->
      (* EOF: no more input, but everything already buffered (including
         a final unterminated line) is still served before closing —
         this is what lets a piped script run to completion in Stdio
         mode. *)
      conn.c_eof <- true;
      conn.c_pending <- conn.c_pending @ extract_lines conn;
      let tail = Buffer.contents conn.c_inbuf in
      Buffer.clear conn.c_inbuf;
      if String.trim tail <> "" then
        conn.c_pending <- conn.c_pending @ [ tail ];
      dispatch t conn;
      maybe_close t conn
  | n ->
      conn.c_last_us <- now_us ();
      Buffer.add_subbytes conn.c_inbuf buf 0 n;
      if Buffer.length conn.c_inbuf > max_line_bytes then begin
        reject t conn
          (Printf.sprintf "request exceeds %d bytes" max_line_bytes);
        conn.c_closing <- true
      end
      else begin
        conn.c_pending <- conn.c_pending @ extract_lines conn;
        dispatch t conn
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
    ->
      close_conn t conn

(* Write queued replies in order until the socket would block.  A
   partial write leaves the rest of the head in place; no reply is
   copied or joined with another. *)
let rec write_conn t conn =
  match Queue.peek_opt conn.c_out with
  | None -> ()
  | Some text -> (
      let len = String.length text - conn.c_out_off in
      match Unix.write_substring conn.c_wfd text conn.c_out_off len with
      | n ->
          conn.c_last_us <- now_us ();
          if n < len then conn.c_out_off <- conn.c_out_off + n
          else begin
            ignore (Queue.pop conn.c_out);
            conn.c_out_off <- 0;
            if Queue.is_empty conn.c_out then maybe_close t conn
            else write_conn t conn
          end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
          (* The client went away mid-reply.  SIGPIPE is ignored, so this
             is a clean per-connection error, never process death. *)
          close_conn t conn)

let recorder_dump_path t =
  Option.value t.cfg.recorder_out ~default:"tempagg-recorder.json"

(* Flight-recorder dump to disk, atomically (temp + rename) so a reader
   racing SIGUSR1 never sees half a JSON document. *)
let write_recorder_dump t =
  let path = recorder_dump_path t in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Obs.Recorder.dump ()));
  Sys.rename tmp path

let run ?(signals = false) t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if signals then begin
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> shutdown t));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> shutdown t));
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle
         (fun _ ->
           Atomic.set t.dump_requested true;
           wake t))
  end;
  let started_us = now_us () in
  t.started_us <- started_us;
  (* Touch every metric family once so a zero-traffic exposition still
     shows the full instrument panel. *)
  ignore (m_accepted t);
  ignore (m_shed t);
  ignore (m_timed_out t);
  ignore (m_degraded t);
  refresh_scrape_metrics t;
  (* The first scrape only records the delta baseline; intervals start
     accruing from server start, not from the first later tick. *)
  Option.iter (fun s -> scrape_tick t s ~now:started_us) t.scraper;
  let workers =
    Array.init t.cfg.domains (fun _ -> Domain.spawn (worker_loop t))
  in
  (match t.cfg.transport with
  | Stdio -> ignore (add_conn t ~tcp:false ~fd:Unix.stdin ~wfd:Unix.stdout)
  | Tcp _ -> ());
  let accepting = ref (t.listen_fd <> None) in
  let draining = ref false in
  let drain_deadline_us = ref 0 in
  let forced = ref false in
  let stop_listening () =
    if !accepting then begin
      accepting := false;
      Option.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        t.listen_fd
    end
  in
  let begin_drain () =
    if not !draining then begin
      draining := true;
      drain_deadline_us := now_us () + (t.cfg.drain_timeout_ms * 1000);
      stop_listening ();
      Admission.drain ~reason:"draining: server is shutting down" t.admission
    end
  in
  let conn_list () = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let all_flushed () =
    List.for_all
      (fun c ->
        (not c.c_outstanding) && Queue.is_empty c.c_out && c.c_pending = [])
      (conn_list ())
  in
  let rec loop () =
    handle_completions t;
    refresh_admission_gauges t;
    Option.iter
      (fun s ->
        let now = now_us () in
        if Selfmon.Scrape.due s ~now_us:now then scrape_tick t s ~now)
      t.scraper;
    if Atomic.exchange t.dump_requested false then begin
      try write_recorder_dump t
      with Sys_error _ | Unix.Unix_error _ -> ()
    end;
    if Atomic.get t.stop_requested then begin_drain ();
    (* Stdio mode drains itself once its one connection is gone. *)
    if t.cfg.transport = Stdio && Hashtbl.length t.conns = 0 then
      begin_drain ();
    if !draining && Admission.idle t.admission && all_flushed () then ()
    else if !draining && now_us () > !drain_deadline_us then begin
      (* Past the drain deadline: shed what is still queued and force
         the connections closed.  In-flight work finishes on its worker
         (bounded by the guard deadline when one is configured) but its
         reply has nowhere to go. *)
      forced := true;
      let evicted = Admission.shed_queued t.admission in
      List.iter
        (fun job ->
          Obs.Metrics.inc (m_shed t);
          Obs.Trace.close_span job.j_queue;
          Obs.Trace.close_span
            ~attrs:
              [ ("outcome", "shed"); ("reason", "draining: deadline reached") ]
            job.j_root;
          Obs.Recorder.pin ~trace:job.j_trace ~reason:"shed";
          match Hashtbl.find_opt t.conns job.j_conn with
          | None -> ()
          | Some conn ->
              conn.c_outstanding <- false;
              send conn
                (Protocol.encode (Protocol.Busy "draining: deadline reached"));
              write_conn t conn)
        evicted;
      List.iter (fun c -> close_conn t c) (conn_list ())
    end
    else begin
      let now = now_us () in
      (* Reap idle connections (never one whose reply is in flight). *)
      let idle_cutoff = now - (t.cfg.idle_timeout_ms * 1000) in
      List.iter
        (fun c ->
          if
            c.c_tcp
            && (not c.c_outstanding)
            && Queue.is_empty c.c_out
            && (not c.c_closing)
            && (not c.c_eof)
            && c.c_last_us < idle_cutoff
          then begin
            Obs.Metrics.inc (m_timed_out t);
            close_conn t c
          end)
        (conn_list ());
      let reads =
        t.wake_r
        :: (if !accepting then Option.to_list t.listen_fd else [])
        @ List.filter_map
            (fun c ->
              if c.c_outstanding || c.c_closing || c.c_eof then None
              else Some c.c_fd)
            (conn_list ())
      in
      let writes =
        List.filter_map
          (fun c ->
            if Queue.is_empty c.c_out then None else Some c.c_wfd)
          (conn_list ())
      in
      let timeout =
        let next_idle =
          List.fold_left
            (fun acc c ->
              if c.c_outstanding || not c.c_tcp then acc
              else min acc (c.c_last_us + (t.cfg.idle_timeout_ms * 1000)))
            max_int (conn_list ())
        in
        let next =
          if !draining then min next_idle !drain_deadline_us else next_idle
        in
        let next =
          match t.scraper with
          | Some s -> min next (Selfmon.Scrape.next_due_us s)
          | None -> next
        in
        if next = max_int then 1.0
        else Float.max 0.01 (Float.min 1.0 (float_of_int (next - now) /. 1e6))
      in
      (match Unix.select reads writes [] timeout with
      | rs, ws, _ ->
          if List.mem t.wake_r rs then drain_wake_pipe t;
          (match t.listen_fd with
          | Some fd when !accepting && List.mem fd rs -> accept_burst t fd
          | _ -> ());
          List.iter
            (fun c -> if List.mem c.c_fd rs then read_conn t c)
            (conn_list ());
          List.iter
            (fun c ->
              if List.mem c.c_wfd ws && Hashtbl.mem t.conns c.c_id then
                write_conn t c)
            (conn_list ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* A fd closed under us (e.g. a reaped connection raced the
             select set); drop closed conns and carry on. *)
          ());
      loop ()
    end
  in
  loop ();
  stop_listening ();
  List.iter (fun c -> close_conn t c) (conn_list ());
  Admission.stop t.admission;
  Array.iter Domain.join workers;
  handle_completions t;
  refresh_scrape_metrics t;
  (* A configured dump path gets a final dump at exit, so a drained
     server leaves its retained traces behind for post-mortems. *)
  (match t.cfg.recorder_out with
  | Some _ -> (
      try write_recorder_dump t with Sys_error _ | Unix.Unix_error _ -> ())
  | None -> ());
  (* One last scrape-and-evaluate so the report's SLO summary covers the
     traffic right up to the drain. *)
  Option.iter (fun s -> scrape_tick t s ~now:(now_us ())) t.scraper;
  let cval c = int_of_float (Obs.Metrics.counter_value c) in
  {
    accepted = cval (m_accepted t);
    requests = Admission.admitted_total t.admission;
    shed = cval (m_shed t);
    errors =
      List.fold_left
        (fun acc (s : Obs.Metrics.sample) ->
          if s.s_name = "tempagg_net_errors_total" then
            acc + int_of_float s.s_value
          else acc)
        0
        (Obs.Metrics.samples t.registry);
    degraded = cval (m_degraded t);
    timed_out = cval (m_timed_out t);
    elapsed_s = float_of_int (now_us () - started_us) /. 1e6;
    drained = not !forced;
    metrics = t.registry;
    scrapes = (match t.scraper with Some s -> Selfmon.Scrape.ticks s | None -> 0);
    slo_summary =
      Option.map (fun r -> Obs.Slo.report_to_string r) t.slo_report;
  }

(* One row per statement kind, from the per-kind latency histograms
   (percentiles within the histogram's 5% error; count, mean and max
   exact) and error counters.  A "protocol" row has errors but no
   latencies: its lines never ran. *)
let kind_table registry =
  let samples = Obs.Metrics.samples registry in
  let kinds name =
    List.filter_map
      (fun (s : Obs.Metrics.sample) ->
        if s.s_name = name then List.assoc_opt "kind" s.s_labels else None)
      samples
  in
  let timed = kinds "tempagg_net_latency_us" in
  let row kind =
    let labels = [ ("kind", kind) ] in
    let h =
      if List.mem kind timed then
        Obs.Metrics.histogram registry ~labels "tempagg_net_latency_us"
      else Obs.Histogram.create ()
    in
    Printf.sprintf "  %-15s %6d %6.0f %10.1f %10.1f %10.1f %10.1f %10.1f\n"
      kind (Obs.Histogram.count h)
      (Option.value ~default:0.
         (Obs.Metrics.value registry ~labels "tempagg_net_errors_total"))
      (Obs.Histogram.mean h)
      (Obs.Histogram.percentile h 0.5)
      (Obs.Histogram.percentile h 0.9)
      (Obs.Histogram.percentile h 0.99)
      (Obs.Histogram.max_value h)
  in
  match List.sort_uniq compare (timed @ kinds "tempagg_net_errors_total") with
  | [] -> ""
  | all ->
      Printf.sprintf "  %-15s %6s %6s %10s %10s %10s %10s %10s\n" "kind" "ops"
        "errs" "mean-us" "p50-us" "p90-us" "p99-us" "max-us"
      ^ String.concat "" (List.map row all)

let report_to_string r =
  Printf.sprintf
    "server: %d connection(s), %d request(s) in %.3f s — %d shed, %d \
     error(s), %d degraded, %d idle-reaped, drain %s%s\n%s%s"
    r.accepted r.requests r.elapsed_s r.shed r.errors r.degraded r.timed_out
    (if r.drained then "clean" else "forced")
    (if r.scrapes > 0 then Printf.sprintf ", %d self-scrape(s)" r.scrapes
     else "")
    (kind_table r.metrics)
    (match r.slo_summary with None -> "" | Some s -> s ^ "\n")
