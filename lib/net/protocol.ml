type reply =
  | Ok_reply of { degraded : bool; trace : string option; payload : string list }
  | Err of string
  | Busy of string
  | Pong
  | Bye

let clean s =
  if not (String.exists (fun c -> c = '\n' || c = '\r') s) then s
  else
    String.concat "; "
      (List.filter
         (fun part -> part <> "")
         (String.split_on_char '\n'
            (String.concat "" (String.split_on_char '\r' s))))

let strip_request line =
  let line =
    if String.length line > 0 && line.[String.length line - 1] = '\r' then
      String.sub line 0 (String.length line - 1)
    else line
  in
  String.trim line

(* Trace ids ride inside protocol headers, so keep them single-token
   and quote-free: alphanumerics plus [-_.:], at most 64 chars. *)
let valid_trace_id id =
  let n = String.length id in
  n > 0 && n <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' ->
             true
         | _ -> false)
       id

let ok_header ~degraded ~trace count =
  Printf.sprintf "OK %d%s%s\n" count
    (if degraded then " degraded" else "")
    (match trace with
    | Some id when valid_trace_id id -> " trace=" ^ id
    | _ -> "")

let encode = function
  | Ok_reply { degraded; trace; payload } ->
      let header = ok_header ~degraded ~trace (List.length payload) in
      let buf =
        Buffer.create
          (List.fold_left
             (fun acc line -> acc + String.length line + 1)
             (String.length header) payload)
      in
      Buffer.add_string buf header;
      List.iter
        (fun line ->
          Buffer.add_string buf (clean line);
          Buffer.add_char buf '\n')
        payload;
      Buffer.contents buf
  | Err msg -> "ERR " ^ clean msg ^ "\n"
  | Busy reason -> "BUSY " ^ clean reason ^ "\n"
  | Pong -> "PONG\n"
  | Bye -> "BYE\n"

let encode_rows ~degraded ~trace rel =
  Tsql.Pretty.framed ~header:(ok_header ~degraded ~trace) rel

type header =
  | H_ok of { count : int; degraded : bool; trace : string option }
  | H_err of string
  | H_busy of string
  | H_pong
  | H_bye

let parse_header line =
  let line = strip_request line in
  let tail prefix =
    String.sub line (String.length prefix)
      (String.length line - String.length prefix)
  in
  if line = "PONG" then Ok H_pong
  else if line = "BYE" then Ok H_bye
  else if String.length line >= 4 && String.sub line 0 4 = "ERR " then
    Ok (H_err (tail "ERR "))
  else if String.length line >= 5 && String.sub line 0 5 = "BUSY " then
    Ok (H_busy (tail "BUSY "))
  else if String.length line >= 3 && String.sub line 0 3 = "OK " then
    match String.split_on_char ' ' (tail "OK ") with
    | n :: flags -> (
        match int_of_string_opt n with
        | Some count when count >= 0 -> (
            (* Flags after the count: optional "degraded", then an
               optional "trace=<id>" — strict, in that order. *)
            let take_trace = function
              | [] -> Ok None
              | [ tok ]
                when String.length tok > 6 && String.sub tok 0 6 = "trace="
                ->
                  let id = String.sub tok 6 (String.length tok - 6) in
                  if valid_trace_id id then Ok (Some id)
                  else Error (Printf.sprintf "malformed trace id %S" id)
              | _ -> Error (Printf.sprintf "malformed OK header %S" line)
            in
            let degraded, rest =
              match flags with
              | "degraded" :: rest -> (true, rest)
              | rest -> (false, rest)
            in
            match take_trace rest with
            | Ok trace -> Ok (H_ok { count; degraded; trace })
            | Error e -> Error e)
        | _ -> Error (Printf.sprintf "malformed OK count %S" n))
    | [] -> Error (Printf.sprintf "malformed OK header %S" line)
  else Error (Printf.sprintf "unrecognized reply header %S" line)

let sleep_request line =
  let line = strip_request line in
  match String.split_on_char ' ' line with
  | [ verb; ms ] when String.uppercase_ascii verb = "SLEEP" -> (
      match float_of_string_opt ms with
      | Some v when v >= 0. -> Some v
      | _ -> None)
  | _ -> None

(* METRICS, or the SHOW METRICS statement with its optional ';'. *)
let metrics_request line =
  let line = String.uppercase_ascii (strip_request line) in
  let line =
    if String.ends_with ~suffix:";" line then
      String.sub line 0 (String.length line - 1)
    else line
  in
  match
    List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))
  with
  | [ "METRICS" ] | [ "SHOW"; "METRICS" ] -> true
  | _ -> false

let slo_request line = String.uppercase_ascii (strip_request line) = "SLO"

(* TRACE DUMP [id]: an introspection verb, answered on the event loop.
   Distinguished from the [TRACE <id> <statement>] prefix by its second
   token. *)
let trace_dump_request line =
  let line = strip_request line in
  match String.split_on_char ' ' line with
  | [ t; d ]
    when String.uppercase_ascii t = "TRACE" && String.uppercase_ascii d = "DUMP"
    ->
      Some (Ok None)
  | [ t; d; id ]
    when String.uppercase_ascii t = "TRACE" && String.uppercase_ascii d = "DUMP"
    ->
      if valid_trace_id id then Some (Ok (Some id))
      else Some (Error (Printf.sprintf "invalid trace id %S" id))
  | _ -> None

(* Split an optional [TRACE <id>] prefix off a statement line.  [TRACE
   DUMP ...] is a verb, not a prefix — check {!trace_dump_request}
   first. *)
let split_trace line =
  let line = strip_request line in
  match String.index_opt line ' ' with
  | Some i when String.uppercase_ascii (String.sub line 0 i) = "TRACE" -> (
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      let rest = String.trim rest in
      match String.index_opt rest ' ' with
      | None ->
          if String.uppercase_ascii rest = "DUMP" then Ok (None, line)
          else Error "TRACE <id> must be followed by a statement"
      | Some j ->
          let id = String.sub rest 0 j in
          if String.uppercase_ascii id = "DUMP" then Ok (None, line)
          else if not (valid_trace_id id) then
            Error (Printf.sprintf "invalid trace id %S" id)
          else
            let stmt =
              String.trim (String.sub rest (j + 1) (String.length rest - j - 1))
            in
            if stmt = "" then Error "TRACE <id> must be followed by a statement"
            else Ok (Some id, stmt))
  | _ -> Ok (None, line)
