(* Hierarchical tracing spans, recorded lock-free per domain.

   Spans land in one sink: a bounded per-domain ring of the most recent
   spans, on by default (see [set_ring_capacity]).  The ring is what
   makes request-scoped post-mortems possible on a live server: when a
   request turns out slow, shed, or degraded, [Recorder.pin] lifts its
   spans out of the rings before they are overwritten.  A profiling run
   (the CLI's --trace, the bench's trace artifact) sizes the ring for
   the whole run and dumps [recorded ()] at the end.

   With the ring off the only cost on a traced code path is one atomic
   load — the <3% bar the sweep hot path is held to.  Recording itself
   never takes a lock, so Parallel shards on separate domains trace
   without contending.

   Every span carries the request (trace) id of the statement it ran
   under: [with_span] inherits it from the innermost open span on the
   same domain, and takes [?trace] explicitly at domain boundaries.
   Spans that cannot be lexically scoped — a queue-wait opened on the
   event loop and closed by whichever worker domain picks the job up —
   use [open_span]/[close_span], which park the open span in a shared
   table instead of a domain-local stack.

   Timestamps come from a single monotonized wall clock shared by all
   domains, so shard timelines line up in the exported Chrome trace. *)

type span = {
  id : int;
  parent : int option;
  label : string;
  trace : string;  (* request id; "" when outside any request *)
  domain : int;
  start_us : int;
  mutable stop_us : int;  (* negative while the span is open *)
  mutable attrs : (string * string) list;
}

(* Per-domain recording state, epoch-stamped so a resize or [clear]
   starts clean without coordinating with every domain that ever
   traced. *)
type buffer = {
  mutable buf_epoch : int;
  mutable stack : span list;
  (* The ring: lazily allocated to the global capacity, overwriting the
     oldest span once full. *)
  mutable ring : span array;
  mutable ring_next : int;
  mutable ring_filled : int;
  mutable ring_dropped : int;
}

let epoch = Atomic.make 0
let next_id = Atomic.make 1

let default_ring_capacity = 2048
let ring_capacity = Atomic.make default_ring_capacity

let registry : buffer list ref = ref []
let registry_mutex = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Wall clock in microseconds since module init, monotonized across
   domains with a CAS max so exported spans never run backwards. *)
let t0 = Unix.gettimeofday ()
let last_us = Atomic.make 0

let now_us () =
  let raw = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  let rec clamp () =
    let prev = Atomic.get last_us in
    if raw <= prev then prev
    else if Atomic.compare_and_set last_us prev raw then raw
    else clamp ()
  in
  clamp ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      {
        buf_epoch = -1;
        stack = [];
        ring = [||];
        ring_next = 0;
        ring_filled = 0;
        ring_dropped = 0;
      })

let buffer () =
  let b = Domain.DLS.get dls_key in
  let e = Atomic.get epoch in
  if b.buf_epoch <> e then begin
    b.buf_epoch <- e;
    b.stack <- [];
    b.ring <- [||];
    b.ring_next <- 0;
    b.ring_filled <- 0;
    b.ring_dropped <- 0;
    with_lock registry_mutex (fun () -> registry := b :: !registry)
  end;
  b

let recording () = Atomic.get ring_capacity > 0
let ring_capacity_now () = Atomic.get ring_capacity

(* Changing the capacity bumps the epoch so stale rings (allocated at
   the old size) are discarded rather than resized in place. *)
let set_ring_capacity n =
  Atomic.set ring_capacity (max 0 n);
  with_lock registry_mutex (fun () -> registry := []);
  Atomic.incr epoch

(* Spans opened with [open_span], keyed by id until closed.  Shared
   across domains because the opener and the closer need not be the
   same domain. *)
let open_tbl : (int, span) Hashtbl.t = Hashtbl.create 64

let current () =
  if not (recording ()) then None
  else
    match (buffer ()).stack with s :: _ -> Some s.id | [] -> None

let current_trace () =
  if not (recording ()) then ""
  else
    match (buffer ()).stack with s :: _ -> s.trace | [] -> ""

(* Append a completed span to the ring.  It overwrites its oldest entry
   once full, counting the overwrite as a drop so the recorder can
   report pressure. *)
let record b span =
  let cap = Atomic.get ring_capacity in
  if cap > 0 then begin
    if Array.length b.ring <> cap then begin
      b.ring <- Array.make cap span;
      b.ring_next <- 0;
      b.ring_filled <- 0
    end;
    b.ring.(b.ring_next) <- span;
    b.ring_next <- (b.ring_next + 1) mod cap;
    if b.ring_filled = cap then b.ring_dropped <- b.ring_dropped + 1
    else b.ring_filled <- b.ring_filled + 1
  end

let make_span ~stack ?parent ?trace ~attrs label =
  let parent =
    match parent with
    | Some _ as p -> p
    | None -> ( match stack with s :: _ -> Some s.id | [] -> None)
  in
  let trace =
    match trace with
    | Some t -> t
    | None -> ( match stack with s :: _ -> s.trace | [] -> "")
  in
  {
    id = Atomic.fetch_and_add next_id 1;
    parent;
    label;
    trace;
    domain = (Domain.self () :> int);
    start_us = now_us ();
    stop_us = -1;
    attrs;
  }

let with_span ?(attrs = []) ?parent ?trace label f =
  if not (recording ()) then f ()
  else begin
    let b = buffer () in
    let span = make_span ~stack:b.stack ?parent ?trace ~attrs label in
    b.stack <- span :: b.stack;
    Fun.protect
      ~finally:(fun () ->
        span.stop_us <- now_us ();
        (match b.stack with
        | s :: rest when s == span -> b.stack <- rest
        | stack -> b.stack <- List.filter (fun s -> s != span) stack);
        record b span)
      f
  end

let open_span ?(attrs = []) ?parent ?trace label =
  if not (recording ()) then 0
  else begin
    let span = make_span ~stack:[] ?parent ?trace ~attrs label in
    with_lock registry_mutex (fun () -> Hashtbl.replace open_tbl span.id span);
    span.id
  end

let close_span ?(attrs = []) id =
  if id <> 0 then
    let found =
      with_lock registry_mutex (fun () ->
          match Hashtbl.find_opt open_tbl id with
          | Some s ->
              Hashtbl.remove open_tbl id;
              Some s
          | None -> None)
    in
    match found with
    | None -> ()
    | Some span ->
        span.stop_us <- now_us ();
        if attrs <> [] then span.attrs <- span.attrs @ attrs;
        record (buffer ()) span

let sort_spans all =
  List.sort
    (fun a b ->
      match compare a.start_us b.start_us with
      | 0 -> compare a.id b.id
      | c -> c)
    (List.filter (fun s -> s.stop_us >= 0) all)

(* Ring contents across all domains, filtered before the sort so pinning
   one request costs a scan of the rings, not a sort of them.  Reads
   race with concurrent recording on other domains — the recorder
   tolerates a torn view (a span may be missed or seen twice across
   snapshots). *)
let recorded ?trace () =
  let buffers = with_lock registry_mutex (fun () -> !registry) in
  let of_ring b =
    let acc = ref [] in
    for i = min b.ring_filled (Array.length b.ring) - 1 downto 0 do
      let s = b.ring.(i) in
      match trace with
      | Some t when not (String.equal s.trace t) -> ()
      | _ -> acc := s :: !acc
    done;
    !acc
  in
  sort_spans (List.concat_map of_ring buffers)

let ring_stats () =
  let buffers = with_lock registry_mutex (fun () -> !registry) in
  List.fold_left
    (fun (occ, dropped) b -> (occ + b.ring_filled, dropped + b.ring_dropped))
    (0, 0) buffers

let clear () =
  with_lock registry_mutex (fun () ->
      registry := [];
      Hashtbl.reset open_tbl);
  Atomic.incr epoch

(* ---- Chrome trace_event export ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_chrome_json spans =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf s
  in
  (* Name each domain's row so Perfetto labels the shard timelines. *)
  let domains =
    List.sort_uniq compare (List.map (fun s -> s.domain) spans)
  in
  List.iter
    (fun d ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
            \"args\":{\"name\":\"domain %d\"}}"
           d d))
    domains;
  List.iter
    (fun s ->
      let args =
        String.concat ","
          ((Printf.sprintf "\"span_id\":%d" s.id
           :: (match s.parent with
              | Some p -> [ Printf.sprintf "\"parent\":%d" p ]
              | None -> []))
          @ (if s.trace = "" then []
             else [ Printf.sprintf "\"trace\":\"%s\"" (json_escape s.trace) ])
          @ List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
              s.attrs)
      in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"tempagg\",\"ph\":\"X\",\"ts\":%d,\
            \"dur\":%d,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
           (json_escape s.label) s.start_us
           (max 0 (s.stop_us - s.start_us))
           s.domain args))
    spans;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
