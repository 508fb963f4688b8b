(* Slow-query capture: statements whose latency crosses the threshold
   land in a bounded ring (newest evict oldest), with the rendered
   span tree of the statement's pinned trace and the labels of those
   spans.  The ring dumps as JSON an operator can read back —
   each entry carries the statement text ready for EXPLAIN ANALYZE. *)

type entry = {
  statement : string;
  kind : string;
  elapsed_ms : float;
  detail : string option;
  span_labels : string list;
  join : string option;  (* chosen join strategy, with fallback marker *)
  trace : string option;  (* request id, for cross-referencing a dump *)
}

type t = {
  threshold_ms : float;
  capacity : int;
  mutable ring : entry array;
  mutable filled : int;
  mutable next : int;
  mutable hits : int;
  mutable worst : entry option;
}

let create ?(capacity = 32) ~threshold_ms () =
  if capacity < 1 then invalid_arg "Slowlog.create: capacity must be >= 1";
  if threshold_ms < 0. then
    invalid_arg "Slowlog.create: threshold must be >= 0";
  {
    threshold_ms;
    capacity;
    ring = [||];
    filled = 0;
    next = 0;
    hits = 0;
    worst = None;
  }

let threshold_ms t = t.threshold_ms

let observe t ~kind ~statement ~elapsed_ms ?detail ?(span_labels = []) ?join
    ?trace () =
  if elapsed_ms < t.threshold_ms then false
  else begin
    let e = { statement; kind; elapsed_ms; detail; span_labels; join; trace } in
    if Array.length t.ring = 0 then t.ring <- Array.make t.capacity e;
    t.ring.(t.next) <- e;
    t.next <- (t.next + 1) mod t.capacity;
    t.filled <- Stdlib.min (t.filled + 1) t.capacity;
    t.hits <- t.hits + 1;
    (match t.worst with
    | Some w when w.elapsed_ms >= elapsed_ms -> ()
    | _ -> t.worst <- Some e);
    true
  end

let hits t = t.hits

let entries t =
  (* Newest first. *)
  List.init t.filled (fun i ->
      t.ring.((t.next - 1 - i + (2 * t.capacity)) mod t.capacity))

let worst t = t.worst

(* ---- JSON ---- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let entry_to_json e =
  let opt = function
    | None -> "null"
    | Some s -> Printf.sprintf "\"%s\"" (escape s)
  in
  Printf.sprintf
    "{\"statement\": \"%s\", \"kind\": \"%s\", \"elapsed_ms\": %.3f, \
     \"profile\": %s, \"join\": %s, \"trace\": %s, \"spans\": [%s]}"
    (escape e.statement) (escape e.kind) e.elapsed_ms (opt e.detail)
    (opt e.join) (opt e.trace)
    (String.concat ", "
       (List.map (fun l -> Printf.sprintf "\"%s\"" (escape l)) e.span_labels))

let to_json t =
  Printf.sprintf
    "{\"threshold_ms\": %.3f, \"hits\": %d, \"entries\": [\n%s\n]}\n"
    t.threshold_ms t.hits
    (String.concat ",\n"
       (List.map (fun e -> "  " ^ entry_to_json e) (entries t)))
