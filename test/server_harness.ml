(* An in-process Net.Server on an ephemeral TCP port, shared by the
   suites that drive statements through the server. *)

let with_server ?(config = Net.Server.default_config)
    ?(catalog = Tsql.Catalog.with_builtins ()) f =
  let config = { config with Net.Server.transport = Net.Server.Tcp 0 } in
  let srv = Net.Server.create ~config catalog in
  let handle = Domain.spawn (fun () -> Net.Server.run srv) in
  let port = Option.get (Net.Server.port srv) in
  (* The listener is bound before [create] returns, so connecting now
     cannot race the event loop.  [report_of] shuts the server down and
     joins it exactly once (joining twice is an error). *)
  let joined = ref None in
  let report_of () =
    match !joined with
    | Some r -> r
    | None ->
        Net.Server.shutdown srv;
        let r = Domain.join handle in
        joined := Some r;
        r
  in
  Fun.protect
    ~finally:(fun () -> ignore (report_of ()))
    (fun () -> f port report_of)

(* Send [lines] in order over one connection, then drain the server:
   every reply, and the report. *)
let run_lines ?config ?catalog lines =
  with_server ?config ?catalog (fun port report_of ->
      let c = Net.Client.connect ~port () in
      let replies =
        Fun.protect
          ~finally:(fun () -> Net.Client.close c)
          (fun () -> List.map (Net.Client.request c) lines)
      in
      (replies, report_of ()))

(* The text of an OK reply's payload; anything else fails the test. *)
let ok_text = function
  | Ok (Net.Protocol.Ok_reply { payload; _ }) -> String.concat "\n" payload
  | Ok other -> Alcotest.fail ("expected OK, got " ^ Net.Protocol.encode other)
  | Error e -> Alcotest.fail e

(* Per-kind figures from a drained server's registry. *)
let latency (r : Net.Server.report) kind =
  Obs.Metrics.histogram r.metrics ~labels:[ ("kind", kind) ]
    "tempagg_net_latency_us"

let errors (r : Net.Server.report) kind =
  Option.value ~default:0.
    (Obs.Metrics.value r.metrics ~labels:[ ("kind", kind) ]
       "tempagg_net_errors_total")
