(* Tests for the network layer: protocol framing, the admission
   controller's admit/queue/shed/degrade state machine, and end-to-end
   client/server sessions over a real TCP socket (ephemeral port),
   including saturation (BUSY), degradation, and graceful drain. *)

let with_server = Server_harness.with_server

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_encode () =
  Alcotest.(check string) "pong" "PONG\n" (Net.Protocol.encode Net.Protocol.Pong);
  Alcotest.(check string) "bye" "BYE\n" (Net.Protocol.encode Net.Protocol.Bye);
  Alcotest.(check string) "err" "ERR boom\n"
    (Net.Protocol.encode (Net.Protocol.Err "boom"));
  Alcotest.(check string) "busy" "BUSY queue full\n"
    (Net.Protocol.encode (Net.Protocol.Busy "queue full"));
  Alcotest.(check string) "ok" "OK 2\na\nb\n"
    (Net.Protocol.encode
       (Net.Protocol.Ok_reply
          { degraded = false; trace = None; payload = [ "a"; "b" ] }));
  Alcotest.(check string) "ok degraded" "OK 0 degraded\n"
    (Net.Protocol.encode
       (Net.Protocol.Ok_reply { degraded = true; trace = None; payload = [] }))

let test_protocol_clean_embedded_newlines () =
  (* Frame integrity: payload lines and error text can never smuggle a
     newline that would desynchronize the stream. *)
  Alcotest.(check string) "newlines collapsed" "ERR a; b\n"
    (Net.Protocol.encode (Net.Protocol.Err "a\nb"));
  Alcotest.(check string) "crlf collapsed" "OK 1\nx; y\n"
    (Net.Protocol.encode
       (Net.Protocol.Ok_reply
          { degraded = false; trace = None; payload = [ "x\r\ny" ] }))

(* ------------------------------------------------------------------ *)
(* Result framing                                                      *)
(* ------------------------------------------------------------------ *)

(* The table layout before results were framed in one pass, kept
   verbatim as the reference: the e2ebench answer checks render through
   the current [Tsql.Pretty], so only this comparison catches a change
   of layout. *)
module Reference_pretty = struct
  open Relation

  let result_to_string rel =
    let schema = Trel.schema rel in
    let headers =
      List.map (fun c -> c.Schema.name) (Schema.columns schema) @ [ "valid" ]
    in
    let rows =
      List.map
        (fun t ->
          Array.to_list (Array.map Value.to_string (Tuple.values t))
          @ [ Temporal.Interval.to_string (Tuple.valid t) ])
        (Trel.tuples rel)
    in
    let widths = Array.of_list (List.map String.length headers) in
    List.iter
      (List.iteri (fun i cell ->
           widths.(i) <- Stdlib.max widths.(i) (String.length cell)))
      rows;
    let is_numeric s =
      s <> ""
      && String.for_all
           (function '0' .. '9' | '.' | '-' -> true | _ -> false)
           s
    in
    let pad i cell =
      let gap = widths.(i) - String.length cell in
      if is_numeric cell then String.make gap ' ' ^ cell
      else cell ^ String.make gap ' '
    in
    let line cells = "| " ^ String.concat " | " (List.mapi pad cells) ^ " |" in
    let rule =
      "+"
      ^ String.concat "+"
          (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
      ^ "+"
    in
    String.concat "\n"
      ([ rule; line headers; rule ] @ List.map line rows @ [ rule ])
end

(* The payload a server sent before one-pass framing: the reference
   table's non-empty lines. *)
let reference_payload rel =
  List.filter
    (fun l -> l <> "")
    (String.split_on_char '\n' (Reference_pretty.result_to_string rel))

let reference_reply ~degraded ~trace rel =
  Net.Protocol.encode
    (Net.Protocol.Ok_reply { degraded; trace; payload = reference_payload rel })

(* Relations built to hit every layout rule: right-aligned digit-only
   cells (Int, [-0.5], "123", "-", "."), left-aligned [%g] forms
   ([1e+06], [nan], [inf]), NULL, [min_int]/[max_int], intervals from 0
   and to [oo], Str cells holding '|', spaces, '\r' and '\n', headers
   wider than every cell, and 0 or 1 rows. *)
let gen_result_relation =
  let open Relation in
  QCheck2.Gen.(
    let int_cell =
      oneof
        [
          oneofl [ 0; 7; -1; 10; -10; 99; -100; min_int; min_int + 1; max_int ];
          int;
        ]
    in
    let float_cell =
      oneof
        [
          oneofl
            [ 1e6; nan; infinity; neg_infinity; -0.5; 0.; -0.; 0.25; 1e-7; 123456. ];
          float;
        ]
    in
    let str_cell =
      oneof
        [
          oneofl
            [
              ""; "0"; "123"; "-"; "."; "-1.5"; "a|b"; "a b"; " "; "x\ry";
              "x\ny"; "\n"; "\n\n"; "a\r\n"; "\r"; "\n\r\n"; "\r\n\r\n"; "a\n\rb\n";
            ];
          string_size ~gen:printable (int_bound 12);
        ]
    in
    let cell = function
      | Value.Tint -> map (fun i -> Value.Int i) int_cell
      | Value.Tfloat -> map (fun f -> Value.Float f) float_cell
      | Value.Tstring -> map (fun s -> Value.Str s) str_cell
    in
    let nullable ty = frequency [ (1, return Value.Null); (5, cell ty) ] in
    let header i =
      oneofl
        [
          Printf.sprintf "c%d" i;
          Printf.sprintf "a_header_wider_than_every_cell_%d" i;
          string_of_int i;
        ]
    in
    let interval =
      let* start = oneof [ return 0; int_bound 100; int_bound 1_000_000_000 ] in
      let* stop =
        frequency
          [
            (1, return None);
            (1, return (Some (max_int - 1)));
            (4, map (fun d -> Some (start + d)) (int_bound 100_000));
          ]
      in
      return
        (match stop with
        | None -> Temporal.Interval.from (Temporal.Chronon.of_int start)
        | Some stop -> Temporal.Interval.of_ints start stop)
    in
    let* tys = list_size (int_bound 3) (oneofl Value.[ Tint; Tfloat; Tstring ]) in
    let* names = flatten_l (List.mapi (fun i _ -> header i) tys) in
    let* nrows = frequency [ (1, return 0); (1, return 1); (4, int_range 2 8) ] in
    let* rows =
      list_repeat nrows (pair (flatten_l (List.map nullable tys)) interval)
    in
    return
      (Trel.create
         (Schema.make
            (List.map2 (fun name ty -> { Schema.name; ty }) names tys))
         (List.map (fun (vs, iv) -> Tuple.make (Array.of_list vs) iv) rows)))

let gen_framing =
  QCheck2.Gen.(
    triple gen_result_relation bool
      (oneofl
         [ None; Some "r1-2"; Some "t.x:y_Z"; Some "bad id!"; Some "";
           Some (String.make 65 'a') ]))

(* Every reply of the property goes through a real socket into
   [Net.Client.read_reply]; one loopback listener serves them all. *)
let loopback =
  lazy
    (let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
     Unix.listen fd 8;
     match Unix.getsockname fd with
     | Unix.ADDR_INET (_, port) -> (fd, port)
     | _ -> assert false)

(* The reply [bytes] as a client reads them, and whether the stream
   ends right after it. *)
let read_back bytes =
  let listener, port = Lazy.force loopback in
  let c = Net.Client.connect ~port () in
  let fd, _ = Unix.accept listener in
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  Unix.close fd;
  let reply = Net.Client.read_reply c in
  let at_end = Result.is_error (Net.Client.read_reply c) in
  Net.Client.close c;
  (reply, at_end)

let prop_framing_matches_reference =
  QCheck2.Test.make ~name:"encode_rows = reference rendering, split and framed"
    ~count:500
    ~print:(fun (rel, degraded, trace) ->
      Printf.sprintf "degraded=%b trace=%s\n%S" degraded
        (Option.value trace ~default:"-")
        (Reference_pretty.result_to_string rel))
    gen_framing
    (fun (rel, degraded, trace) ->
      let got = Net.Protocol.encode_rows ~degraded ~trace rel in
      let reply, at_end = read_back got in
      let echoed =
        Option.bind trace (fun id ->
            if Net.Protocol.valid_trace_id id then Some id else None)
      in
      (* The client reads each line as sent: '\r' already removed. *)
      let payload = List.map Net.Protocol.clean (reference_payload rel) in
      got = reference_reply ~degraded ~trace rel
      && Tsql.Pretty.result_to_string rel
         = Reference_pretty.result_to_string rel
      && reply = Ok (Net.Protocol.Ok_reply { degraded; trace = echoed; payload })
      && at_end)

let test_protocol_parse_header () =
  let ok s = match Net.Protocol.parse_header s with Ok h -> h | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "pong" true (ok "PONG" = Net.Protocol.H_pong);
  Alcotest.(check bool) "bye" true (ok "BYE\r" = Net.Protocol.H_bye);
  Alcotest.(check bool) "err" true (ok "ERR nope" = Net.Protocol.H_err "nope");
  Alcotest.(check bool) "busy" true
    (ok "BUSY draining" = Net.Protocol.H_busy "draining");
  Alcotest.(check bool) "ok plain" true
    (ok "OK 3" = Net.Protocol.H_ok { count = 3; degraded = false; trace = None });
  Alcotest.(check bool) "ok degraded" true
    (ok "OK 7 degraded"
    = Net.Protocol.H_ok { count = 7; degraded = true; trace = None });
  let rejected s =
    match Net.Protocol.parse_header s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "garbage" true (rejected "HELLO");
  Alcotest.(check bool) "bad count" true (rejected "OK x");
  Alcotest.(check bool) "negative count" true (rejected "OK -1")

let test_protocol_trace_framing () =
  Alcotest.(check bool) "valid id" true
    (Net.Protocol.valid_trace_id "r1-2.x:y_Z");
  Alcotest.(check bool) "empty id" false (Net.Protocol.valid_trace_id "");
  Alcotest.(check bool) "space rejected" false
    (Net.Protocol.valid_trace_id "a b");
  Alcotest.(check bool) "overlong rejected" false
    (Net.Protocol.valid_trace_id (String.make 65 'a'));
  Alcotest.(check string) "ok with trace" "OK 1 trace=r7-1\nx\n"
    (Net.Protocol.encode
       (Net.Protocol.Ok_reply
          { degraded = false; trace = Some "r7-1"; payload = [ "x" ] }));
  Alcotest.(check string) "degraded and trace" "OK 0 degraded trace=a\n"
    (Net.Protocol.encode
       (Net.Protocol.Ok_reply
          { degraded = true; trace = Some "a"; payload = [] }));
  (* An invalid id is dropped rather than corrupting the header. *)
  Alcotest.(check string) "invalid id dropped" "OK 0\n"
    (Net.Protocol.encode
       (Net.Protocol.Ok_reply
          { degraded = false; trace = Some "a b"; payload = [] }));
  let ok s =
    match Net.Protocol.parse_header s with
    | Ok h -> h
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "header with trace" true
    (ok "OK 2 trace=r7-1"
    = Net.Protocol.H_ok { count = 2; degraded = false; trace = Some "r7-1" });
  Alcotest.(check bool) "degraded then trace" true
    (ok "OK 2 degraded trace=r7-1"
    = Net.Protocol.H_ok { count = 2; degraded = true; trace = Some "r7-1" });
  let rejected s =
    match Net.Protocol.parse_header s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "flags are ordered" true
    (rejected "OK 2 trace=a degraded");
  Alcotest.(check bool) "bad id in header rejected" true
    (rejected "OK 2 trace=a;b")

let test_protocol_trace_verbs () =
  Alcotest.(check bool) "plain statement passes through" true
    (Net.Protocol.split_trace "SELECT 1" = Ok (None, "SELECT 1"));
  (match Net.Protocol.split_trace "TRACE c1-1 SELECT 1" with
  | Ok (Some "c1-1", "SELECT 1") -> ()
  | _ -> Alcotest.fail "TRACE prefix must split off");
  (* TRACE DUMP is a verb, never a statement prefix. *)
  Alcotest.(check bool) "dump passes through split" true
    (Net.Protocol.split_trace "TRACE DUMP abc" = Ok (None, "TRACE DUMP abc"));
  Alcotest.(check bool) "bad id rejected" true
    (Result.is_error (Net.Protocol.split_trace "TRACE a!b SELECT 1"));
  Alcotest.(check bool) "missing statement rejected" true
    (Result.is_error (Net.Protocol.split_trace "TRACE abc"));
  Alcotest.(check bool) "metrics verb" true
    (Net.Protocol.metrics_request " metrics ");
  Alcotest.(check bool) "metrics takes no arguments" false
    (Net.Protocol.metrics_request "METRICS now");
  Alcotest.(check bool) "SHOW METRICS is the same verb" true
    (Net.Protocol.metrics_request "show  Metrics ;");
  (match Net.Protocol.trace_dump_request "trace dump" with
  | Some (Ok None) -> ()
  | _ -> Alcotest.fail "bare TRACE DUMP");
  (match Net.Protocol.trace_dump_request "TRACE DUMP r1-1" with
  | Some (Ok (Some "r1-1")) -> ()
  | _ -> Alcotest.fail "TRACE DUMP with an id");
  (match Net.Protocol.trace_dump_request "TRACE DUMP bad!id" with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "an invalid dump id is an error, not a statement");
  match Net.Protocol.trace_dump_request "TRACE r1-1 SELECT 1" with
  | None -> ()
  | _ -> Alcotest.fail "a TRACE prefix is not the dump verb"

let test_protocol_sleep () =
  Alcotest.(check bool) "parses" true
    (Net.Protocol.sleep_request "SLEEP 25" = Some 25.);
  Alcotest.(check bool) "case-insensitive" true
    (Net.Protocol.sleep_request "sleep 1.5" = Some 1.5);
  Alcotest.(check bool) "negative rejected" true
    (Net.Protocol.sleep_request "SLEEP -1" = None);
  Alcotest.(check bool) "not a sleep" true
    (Net.Protocol.sleep_request "SELECT 1" = None)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let submit_tag adm tag =
  Net.Admission.submit adm (fun ~degraded -> (tag, degraded))

let test_admission_bounds () =
  (* 2 workers + depth 3: submits 1..5 admitted, 6th shed.  No worker
     ever takes, so everything counts against the shared bound. *)
  let adm = Net.Admission.create ~workers:2 ~queue_depth:3 () in
  for i = 1 to 5 do
    match submit_tag adm i with
    | Net.Admission.Admitted _ -> ()
    | Net.Admission.Shed r -> Alcotest.fail (Printf.sprintf "submit %d shed: %s" i r)
  done;
  (match submit_tag adm 6 with
  | Net.Admission.Shed reason ->
      Alcotest.(check bool) "reason is structured" true
        (String.length reason > 0)
  | Net.Admission.Admitted _ -> Alcotest.fail "6th submit must shed");
  Alcotest.(check int) "admitted" 5 (Net.Admission.admitted_total adm);
  Alcotest.(check int) "shed" 1 (Net.Admission.shed_total adm);
  (* Taking moves work from queued to in flight — the shared bound is
     unchanged, so the next submit still sheds. *)
  (match Net.Admission.take adm with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "take returns the oldest submit");
  (match submit_tag adm 7 with
  | Net.Admission.Shed _ -> ()
  | Net.Admission.Admitted _ ->
      Alcotest.fail "take alone must not free an admission slot");
  (* Only finishing the request frees the slot. *)
  Net.Admission.finish adm;
  (match submit_tag adm 8 with
  | Net.Admission.Admitted _ -> ()
  | Net.Admission.Shed _ ->
      Alcotest.fail "finish must free an admission slot");
  Net.Admission.stop adm

let test_admission_degrade_watermark () =
  (* 1 worker, depth 4, watermark 2.  Take one job in flight (worker
     busy); the 1st queued submit is below the watermark, the 2nd hits
     it and degrades. *)
  let adm =
    Net.Admission.create ~degrade_watermark:2 ~workers:1 ~queue_depth:4 ()
  in
  (match submit_tag adm 0 with
  | Net.Admission.Admitted { degraded; _ } ->
      Alcotest.(check bool) "idle pool never degrades" false degraded
  | Net.Admission.Shed _ -> Alcotest.fail "must admit");
  ignore (Net.Admission.take adm);
  (match submit_tag adm 1 with
  | Net.Admission.Admitted { degraded; queued_behind } ->
      Alcotest.(check bool) "below watermark" false degraded;
      Alcotest.(check int) "queue was empty" 0 queued_behind
  | Net.Admission.Shed _ -> Alcotest.fail "must admit");
  (match submit_tag adm 2 with
  | Net.Admission.Admitted { degraded; _ } ->
      Alcotest.(check bool) "at watermark degrades" true degraded
  | Net.Admission.Shed _ -> Alcotest.fail "must admit");
  Alcotest.(check int) "degraded counted" 1 (Net.Admission.degraded_total adm);
  Alcotest.(check bool) "flag travels with the request" true
    (match Net.Admission.take adm with Some (1, false) -> true | _ -> false);
  Alcotest.(check bool) "degraded request carries its flag" true
    (match Net.Admission.take adm with Some (2, true) -> true | _ -> false);
  Net.Admission.stop adm

let test_admission_drain_and_evict () =
  let adm = Net.Admission.create ~workers:1 ~queue_depth:8 () in
  List.iter (fun i -> ignore (submit_tag adm i)) [ 1; 2; 3 ];
  Net.Admission.drain ~reason:"draining: test" adm;
  (match submit_tag adm 99 with
  | Net.Admission.Shed reason ->
      Alcotest.(check string) "drain reason" "draining: test" reason
  | Net.Admission.Admitted _ -> Alcotest.fail "drain must shed new work");
  (* Queued work survives the drain... *)
  Alcotest.(check bool) "queued still served" true
    (match Net.Admission.take adm with Some (1, _) -> true | _ -> false);
  (* ...until the deadline evicts it, in submission order. *)
  let evicted = List.map fst (Net.Admission.shed_queued adm) in
  Alcotest.(check (list int)) "evicted in order" [ 2; 3 ] evicted;
  Net.Admission.stop adm;
  Alcotest.(check bool) "stopped take yields None" true
    (Net.Admission.take adm = None)

let test_admission_take_blocks_until_stop () =
  let adm = Net.Admission.create ~workers:1 ~queue_depth:1 () in
  let taker = Domain.spawn (fun () -> Net.Admission.take adm) in
  Unix.sleepf 0.02;
  Net.Admission.stop adm;
  Alcotest.(check bool) "woken with None" true (Domain.join taker = None)

(* ------------------------------------------------------------------ *)
(* Client/server end to end                                            *)
(* ------------------------------------------------------------------ *)

(* (degraded, payload) of an [OK] reply; anything else fails the test. *)
let expect_ok = function
  | Ok (Net.Protocol.Ok_reply { degraded; payload; _ }) -> (degraded, payload)
  | Ok other -> Alcotest.fail ("expected OK, got " ^ Net.Protocol.encode other)
  | Error e -> Alcotest.fail e

let test_e2e_session () =
  with_server (fun port report_of ->
      let c = Net.Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () ->
          (match Net.Client.request c "PING" with
          | Ok Net.Protocol.Pong -> ()
          | _ -> Alcotest.fail "PING must answer PONG");
          let degraded, payload =
            expect_ok
              (Net.Client.request c
                 "SELECT COUNT(name) FROM Employed DURING [5,15]")
          in
          Alcotest.(check bool) "rows come back" true (List.length payload > 0);
          Alcotest.(check bool) "not degraded when idle" false degraded;
          (match Net.Client.request c "SELEKT nope" with
          | Ok (Net.Protocol.Err _) -> ()
          | _ -> Alcotest.fail "parse failure must answer ERR");
          (* The connection survives a statement error. *)
          ignore
            (expect_ok (Net.Client.request c "SELECT COUNT(name) FROM Employed"));
          match Net.Client.request c "QUIT" with
          | Ok Net.Protocol.Bye -> ()
          | _ -> Alcotest.fail "QUIT must answer BYE");
      let report = report_of () in
      Alcotest.(check bool) "connection counted" true (report.Net.Server.accepted >= 1);
      Alcotest.(check bool) "statements counted" true (report.Net.Server.requests >= 3);
      Alcotest.(check int) "one ERR" 1 report.Net.Server.errors;
      Alcotest.(check bool) "clean drain" true report.Net.Server.drained)

let test_e2e_writes_are_connection_local () =
  with_server (fun port _report_of ->
      let a = Net.Client.connect ~port () in
      let b = Net.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close a;
          Net.Client.close b)
        (fun () ->
          ignore
            (expect_ok
               (Net.Client.request a
                  "INSERT INTO Employed VALUES ('Zoe', 99000) DURING [1,5]"));
          let count c =
            let _, payload =
              expect_ok
                (Net.Client.request c "SELECT COUNT(name) FROM Employed DURING [1,2]")
            in
            String.concat " " payload
          in
          (* A sees its insert; B's session still has the pristine
             builtin relation — sessions never share mutable state. *)
          Alcotest.(check bool) "sessions isolated" true (count a <> count b)))

let saturation_config =
  {
    Net.Server.default_config with
    Net.Server.domains = 1;
    queue_depth = 0;
    drain_timeout_ms = 3_000;
  }

let test_e2e_busy_when_saturated () =
  with_server ~config:saturation_config (fun port _report_of ->
      let blocker = Net.Client.connect ~port () in
      let prober = Net.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close blocker;
          Net.Client.close prober)
        (fun () ->
          (* Park the only worker, then probe: statements shed with
             BUSY, but PING still answers — liveness survives
             saturation. *)
          Net.Client.send blocker "SLEEP 400";
          Unix.sleepf 0.1;
          (match Net.Client.request prober "SELECT COUNT(name) FROM Employed" with
          | Ok (Net.Protocol.Busy reason) ->
              Alcotest.(check bool) "reason mentions the queue" true
                (String.length reason > 0)
          | Ok other ->
              Alcotest.fail ("expected BUSY, got " ^ Net.Protocol.encode other)
          | Error e -> Alcotest.fail e);
          (match Net.Client.request prober "PING" with
          | Ok Net.Protocol.Pong -> ()
          | _ -> Alcotest.fail "PING must bypass admission");
          (* The parked statement still completes normally. *)
          match Net.Client.read_reply blocker with
          | Ok (Net.Protocol.Ok_reply _) -> ()
          | _ -> Alcotest.fail "blocker must get its reply"))

let test_e2e_degraded_under_queueing () =
  let config =
    {
      Net.Server.default_config with
      Net.Server.domains = 1;
      queue_depth = 4;
      degrade_watermark = Some 1;
      drain_timeout_ms = 3_000;
    }
  in
  with_server ~config (fun port _report_of ->
      let blocker = Net.Client.connect ~port () in
      let queued = Net.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close blocker;
          Net.Client.close queued)
        (fun () ->
          Net.Client.send blocker "SLEEP 300";
          Unix.sleepf 0.1;
          (* Queued behind a saturated pool at the watermark: admitted,
             executed, and the reply is marked degraded. *)
          let degraded, _ =
            expect_ok (Net.Client.request queued "SELECT COUNT(name) FROM Employed")
          in
          Alcotest.(check bool) "reply marked degraded" true degraded;
          match Net.Client.read_reply blocker with
          | Ok (Net.Protocol.Ok_reply _) -> ()
          | _ -> Alcotest.fail "blocker must get its reply"))

(* Poll METRICS on a connection of its own until the exposition holds
   [line] — an observable server state rather than a guessed delay. *)
let await_metric port line =
  let probe = Net.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Net.Client.close probe) (fun () ->
      let rec poll tries =
        match Net.Client.request probe "METRICS" with
        | Ok (Net.Protocol.Ok_reply { payload; _ }) when List.mem line payload
          ->
            ()
        | Ok _ when tries > 0 ->
            Unix.sleepf 0.01;
            poll (tries - 1)
        | Ok _ -> Alcotest.failf "METRICS never showed %S" line
        | Error e -> Alcotest.fail e
      in
      poll 1000)

let test_e2e_graceful_drain_with_inflight () =
  with_server ~config:saturation_config (fun port report_of ->
      let c = Net.Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () ->
          (* Shutdown with a statement in flight: the drain finishes the
             work and flushes the reply (into the socket buffer) before
             the server exits.  The drain starts only once a worker holds
             the statement: closing a socket whose request was never read
             would reset the connection instead. *)
          Net.Client.send c "SLEEP 200";
          await_metric port "tempagg_net_in_flight 1";
          let report = report_of () in
          (match Net.Client.read_reply c with
          | Ok (Net.Protocol.Ok_reply _) -> ()
          | _ -> Alcotest.fail "in-flight reply must be flushed on drain");
          Alcotest.(check bool) "drained cleanly" true report.Net.Server.drained;
          Alcotest.(check bool) "the request ran" true
            (report.Net.Server.requests >= 1)))

(* A traced statement leaves a reconstructable record: the reply echoes
   the request id, and — with the slowlog threshold at 0, so every
   statement pins as "slow" — the flight recorder holds the full span
   tree: request root opened at accept-side dispatch, the queue wait,
   the worker-side execute span, and the engine spans underneath, every
   parent resolvable to the root within the same trace. *)
let test_e2e_trace_span_tree () =
  Obs.Recorder.clear ();
  let config =
    {
      Net.Server.default_config with
      Net.Server.slowlog = Some (Obs.Slowlog.create ~threshold_ms:0. ());
    }
  in
  let id = "e2e-span-tree" in
  let payload = ref [] and reply_bytes = ref 0 in
  with_server ~config (fun port report_of ->
      let c = Net.Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () ->
          match
            Net.Client.request ~trace:id c
              "SELECT COUNT(name) FROM Employed DURING [5,15]"
          with
          | Ok (Net.Protocol.Ok_reply { trace; payload = p; _ } as reply) ->
              payload := p;
              reply_bytes := String.length (Net.Protocol.encode reply);
              Alcotest.(check (option string)) "id echoed" (Some id) trace
          | Ok other ->
              Alcotest.fail ("expected OK, got " ^ Net.Protocol.encode other)
          | Error e -> Alcotest.fail e);
      ignore (report_of ()));
  match Obs.Recorder.find id with
  | None -> Alcotest.fail "a slow request must be pinned"
  | Some p ->
      Alcotest.(check string) "pinned as slow" "slow" p.Obs.Recorder.p_reason;
      let spans = p.Obs.Recorder.p_spans in
      let has l =
        List.exists (fun (s : Obs.Trace.span) -> s.label = l) spans
      in
      List.iter
        (fun l -> Alcotest.(check bool) ("span " ^ l) true (has l))
        [ "request"; "queue-wait"; "execute"; "format" ];
      Alcotest.(check bool) "engine spans nest under the request" true
        (List.exists
           (fun (s : Obs.Trace.span) ->
             not (List.mem s.label [ "request"; "queue-wait"; "execute"; "format" ]))
           spans);
      (* The reply is rendered and framed on the worker, under execute,
         and the span says how big it was. *)
      let find l = List.find (fun (s : Obs.Trace.span) -> s.label = l) spans in
      let format = find "format" in
      Alcotest.(check (option int)) "format under execute"
        (Some (find "execute").id) format.parent;
      Alcotest.(check (option string)) "format rows"
        (Some (string_of_int (List.length !payload - 4)))
        (List.assoc_opt "rows" format.attrs);
      Alcotest.(check (option string)) "format bytes"
        (Some (string_of_int !reply_bytes))
        (List.assoc_opt "bytes" format.attrs);
      let root =
        List.find (fun (s : Obs.Trace.span) -> s.label = "request") spans
      in
      Alcotest.(check bool) "root has no parent" true (root.parent = None);
      Alcotest.(check bool) "root records the outcome" true
        (List.mem_assoc "outcome" root.attrs);
      let tbl = Hashtbl.create 16 in
      List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace tbl s.id s) spans;
      List.iter
        (fun (s : Obs.Trace.span) ->
          Alcotest.(check string) "span carries the request id" id s.trace;
          Alcotest.(check bool)
            (Printf.sprintf "%s duration non-negative" s.label)
            true (s.stop_us >= s.start_us);
          let rec walk guard (x : Obs.Trace.span) =
            if guard = 0 then Alcotest.fail "parent cycle"
            else
              match x.parent with
              | None ->
                  Alcotest.(check int)
                    (s.label ^ " reaches the request root")
                    root.id x.id
              | Some parent -> (
                  match Hashtbl.find_opt tbl parent with
                  | None ->
                      Alcotest.fail
                        (Printf.sprintf "parent %d of %s not in the trace"
                           parent x.label)
                  | Some px -> walk (guard - 1) px)
          in
          walk 64 s)
        spans

(* METRICS and TRACE DUMP are introspection verbs answered on the event
   loop, like PING: a Prometheus exposition (build identity, uptime and
   recorder gauges included) and a Chrome trace JSON dump. *)
let test_e2e_metrics_and_dump_verbs () =
  Obs.Recorder.clear ();
  let config =
    {
      Net.Server.default_config with
      Net.Server.slowlog = Some (Obs.Slowlog.create ~threshold_ms:0. ());
    }
  in
  with_server ~config (fun port _report_of ->
      let c = Net.Client.connect ~port () in
      let id = "e2e-dump-verb" in
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i =
          i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
        in
        go 0
      in
      Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () ->
          ignore
            (expect_ok
               (Net.Client.request ~trace:id c
                  "SELECT COUNT(name) FROM Employed"));
          let _, payload = expect_ok (Net.Client.request c "METRICS") in
          let text = String.concat "\n" payload in
          List.iter
            (fun needle ->
              Alcotest.(check bool) ("exposition has " ^ needle) true
                (contains text needle))
            [
              "tempagg_build_info";
              "tempagg_uptime_seconds";
              "tempagg_recorder_ring_spans";
              "tempagg_net_queued";
            ];
          let _, dump_lines =
            expect_ok (Net.Client.request c ("TRACE DUMP " ^ id))
          in
          let dump = String.concat "\n" dump_lines in
          Alcotest.(check bool) "chrome envelope" true
            (contains dump "traceEvents");
          Alcotest.(check bool) "dump holds the trace" true
            (contains dump ("\"trace\":\"" ^ id ^ "\""));
          match Net.Client.request c "TRACE DUMP bad!id" with
          | Ok (Net.Protocol.Err _) -> ()
          | _ -> Alcotest.fail "an invalid dump id must answer ERR"))

(* SHOW METRICS answers on the event loop exactly as METRICS, so it is
   fresh without a scraper: the shared registry (per-kind request
   series, the join counters) plus the asking connection's own session
   gauges, live and partitioned. *)
let test_e2e_show_metrics_fresh () =
  let data_dir = Filename.temp_dir "tempagg_net" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote data_dir)))
    (fun () ->
      let config =
        { Net.Server.default_config with Net.Server.data_dir = Some data_dir }
      in
      let replies, _ =
        Server_harness.run_lines ~config
          [
            "SELECT COUNT(name) FROM Employed";
            "CREATE TABLE readings (sensor STRING, value INT) PARTITION BY \
             RANGE (vt) (100, 200)";
            "SHOW METRICS";
            "TRACE m-1 show metrics;";
            "METRICS";
          ]
      in
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i =
          i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
        in
        go 0
      in
      match replies with
      | [ _; _; show; traced; verb ] ->
          (match traced with
          | Ok (Net.Protocol.Ok_reply { trace = Some "m-1"; _ }) -> ()
          | _ -> Alcotest.fail "a TRACE-prefixed SHOW METRICS echoes its id");
          List.iter
            (fun reply ->
              let text = Server_harness.ok_text reply in
              List.iter
                (fun needle ->
                  Alcotest.(check bool) ("exposition has " ^ needle) true
                    (contains text needle))
                [
                  "tempagg_net_latency_us_bucket{kind=\"select\"";
                  "tempagg_net_requests_total{kind=\"select\"} 1";
                  "tempagg_join_";
                  "tempagg_live_";
                  "tempagg_partition_shards{relation=\"readings\"} 3";
                ])
            [ show; traced; verb ]
      | _ -> Alcotest.fail "one reply per line")

(* Shed requests never reach a worker, but their trace is still worth
   keeping: the dispatch path closes the root with outcome=shed and pins
   it, so the BUSY is reconstructable after the fact. *)
let test_e2e_shed_request_pinned () =
  Obs.Recorder.clear ();
  with_server ~config:saturation_config (fun port _report_of ->
      let blocker = Net.Client.connect ~port () in
      let prober = Net.Client.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Net.Client.close blocker;
          Net.Client.close prober)
        (fun () ->
          Net.Client.send blocker "SLEEP 300";
          Unix.sleepf 0.1;
          (match
             Net.Client.request ~trace:"e2e-shed" prober
               "SELECT COUNT(name) FROM Employed"
           with
          | Ok (Net.Protocol.Busy _) -> ()
          | _ -> Alcotest.fail "the probe must shed");
          (match Obs.Recorder.find "e2e-shed" with
          | Some p ->
              Alcotest.(check string) "pinned as shed" "shed"
                p.Obs.Recorder.p_reason
          | None -> Alcotest.fail "a shed request must be pinned");
          match Net.Client.read_reply blocker with
          | Ok (Net.Protocol.Ok_reply _) -> ()
          | _ -> Alcotest.fail "blocker must get its reply"))

let test_e2e_report_render () =
  with_server (fun port report_of ->
      let c = Net.Client.connect ~port () in
      ignore (Net.Client.request c "PING");
      Net.Client.close c;
      let report = report_of () in
      let text = Net.Server.report_to_string report in
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i =
          i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "mentions drain" true (contains text "drain"))

(* A reply far larger than the socket buffers, pipelined with a PING
   and read slowly: the server's nonblocking writes come back partial,
   and the output queue must resume each one where it stopped, keep the
   reply byte-exact, and send PONG only after it. *)
let test_e2e_large_reply_slow_reader () =
  let open Relation in
  (* Point tuples at every other instant from [base]: the count
     alternates 1 and 0, one row per instant after [0, base - 1], then
     [.., oo].  About 6 MB, beyond what the host's socket buffers take
     in one write. *)
  let n = 60_000 and base = 1_000_000_000_000_000 in
  let big =
    Trel.create
      (Schema.of_pairs [ ("v", Value.Tint) ])
      (List.init n (fun i ->
           let at = base + (2 * i) in
           Tuple.make [| Value.Int i |] (Temporal.Interval.of_ints at at)))
  in
  let catalog = Tsql.Catalog.add (Tsql.Catalog.with_builtins ()) "big" big in
  let stmt = "SELECT COUNT(*) FROM big" in
  let result =
    match Tsql.Eval.query catalog stmt with
    | Ok rel -> rel
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "rows" ((2 * n) + 1) (Trel.cardinality result);
  with_server ~catalog (fun port _report_of ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (* A small, fixed receive window: the reply cannot all sit in
         socket buffers, whatever the host's autotuning limits. *)
      Unix.setsockopt_int fd Unix.SO_RCVBUF 16384;
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let request = stmt ^ "\nPING\n" in
          ignore (Unix.write_substring fd request 0 (String.length request));
          (* Let both socket buffers fill before reading anything. *)
          Unix.sleepf 0.2;
          (* The server mints the first statement's id as r<conn>-0. *)
          let expected trace =
            reference_reply ~degraded:false ~trace:(Some trace) result ^ "PONG\n"
          in
          let received = Buffer.create (1 lsl 20) in
          let chunk = Bytes.create 65536 in
          let ends_with_pong () =
            let len = Buffer.length received in
            len >= 5 && Buffer.sub received (len - 5) 5 = "PONG\n"
          in
          let rec read_slowly () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | k ->
                Buffer.add_subbytes received chunk 0 k;
                if not (ends_with_pong ()) then begin
                  Unix.sleepf 0.0002;
                  read_slowly ()
                end
          in
          read_slowly ();
          let text = Buffer.contents received in
          let header = String.sub text 0 (String.index text '\n') in
          let count, trace =
            match Net.Protocol.parse_header header with
            | Ok (Net.Protocol.H_ok { count; trace = Some trace; _ }) ->
                (count, trace)
            | _ -> Alcotest.fail ("unexpected header " ^ header)
          in
          let lines = String.split_on_char '\n' text in
          (* header, [count] payload lines, PONG, and the empty tail. *)
          Alcotest.(check int) "OK count = lines received" (count + 3)
            (List.length lines);
          Alcotest.(check int) "count = rows + 4" (Trel.cardinality result + 4)
            count;
          Alcotest.(check bool) "bytes equal the reference, PONG after" true
            (text = expected trace)))

let () =
  Alcotest.run "net"
    [
      ( "protocol",
        [
          Alcotest.test_case "encode" `Quick test_protocol_encode;
          Alcotest.test_case "frame integrity" `Quick
            test_protocol_clean_embedded_newlines;
          Alcotest.test_case "parse_header" `Quick test_protocol_parse_header;
          Alcotest.test_case "trace framing" `Quick
            test_protocol_trace_framing;
          Alcotest.test_case "trace verbs" `Quick test_protocol_trace_verbs;
          Alcotest.test_case "sleep verb" `Quick test_protocol_sleep;
          QCheck_alcotest.to_alcotest ~long:false prop_framing_matches_reference;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounds admit/queue/shed" `Quick
            test_admission_bounds;
          Alcotest.test_case "degrade watermark" `Quick
            test_admission_degrade_watermark;
          Alcotest.test_case "drain and evict" `Quick
            test_admission_drain_and_evict;
          Alcotest.test_case "take blocks until stop" `Quick
            test_admission_take_blocks_until_stop;
        ] );
      ( "server",
        [
          Alcotest.test_case "session round trip" `Quick test_e2e_session;
          Alcotest.test_case "writes are connection-local" `Quick
            test_e2e_writes_are_connection_local;
          Alcotest.test_case "BUSY at saturation, PING alive" `Quick
            test_e2e_busy_when_saturated;
          Alcotest.test_case "degraded under queueing" `Quick
            test_e2e_degraded_under_queueing;
          Alcotest.test_case "graceful drain with in-flight work" `Quick
            test_e2e_graceful_drain_with_inflight;
          Alcotest.test_case "trace span tree" `Quick test_e2e_trace_span_tree;
          Alcotest.test_case "SHOW METRICS is fresh" `Quick
            test_e2e_show_metrics_fresh;
          Alcotest.test_case "METRICS and TRACE DUMP verbs" `Quick
            test_e2e_metrics_and_dump_verbs;
          Alcotest.test_case "shed request pinned" `Quick
            test_e2e_shed_request_pinned;
          Alcotest.test_case "report renders" `Quick test_e2e_report_render;
          Alcotest.test_case "large reply to a slow reader" `Quick
            test_e2e_large_reply_slow_reader;
        ] );
    ]
