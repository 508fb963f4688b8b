(** The line protocol spoken between {!Server} and {!Client}.

    {b Requests} are single lines, terminated by ['\n'] (a trailing
    ['\r'] is stripped, so [telnet]/[nc] work).  A line is either a
    control verb — handled by the server's event loop without touching
    the admission controller — or a TSQL statement executed by a worker:

    {v
    request ::= PING            liveness probe; always answered, even
                                when the server is saturated or draining
              | QUIT            close the connection after a BYE
              | METRICS         Prometheus exposition as an OK payload;
                                answered inline like PING, as is the
                                SHOW METRICS statement
              | TRACE DUMP [<id>]
                                flight-recorder dump (Chrome trace JSON)
                                as an OK payload, optionally one trace
              | SLEEP <ms>      hold a worker for <ms> milliseconds
                                (diagnostic / load-testing aid; goes
                                through admission like a statement)
              | [TRACE <id>] <statement>
                                any TSQL statement (see Tsql.Parser),
                                optionally tagged with a client-chosen
                                request id echoed in the OK header
    v}

    Trace ids are 1–64 chars from [A-Za-z0-9._:-].  Without a [TRACE]
    prefix the server mints an id per statement.

    {b Replies} are framed so a client never has to guess where a
    multi-line result ends:

    {v
    reply ::= OK <n> [degraded] [trace=<id>] '\n' <n payload lines>
            | ERR <message>     statement failed (parse, semantic or
                                evaluation error); connection stays open
            | BUSY <reason>     the request was shed by admission
                                control (queue full, or draining) and
                                was NOT executed; retry later
            | PONG              answer to PING
            | BYE               answer to QUIT; the server closes
    v}

    [degraded] marks a result produced under pressure: the admission
    controller queued the request past its degrade watermark, or the
    evaluation recovered through a fallback chain — the answer is
    still exact, but it did not take the planned fast path.
    [trace=<id>] echoes the statement's request id, the key for a later
    [TRACE DUMP <id>]. *)

type reply =
  | Ok_reply of { degraded : bool; trace : string option; payload : string list }
  | Err of string
  | Busy of string
  | Pong
  | Bye

val clean : string -> string
(** Make a string safe to embed in a single protocol line: newlines and
    carriage returns become ["; "] / [""], so an error message can never
    break the framing.  A string holding neither is returned as is. *)

val strip_request : string -> string
(** Normalize one received request line: strip the trailing ['\r'] (if
    any) and surrounding whitespace. *)

val valid_trace_id : string -> bool
(** 1–64 chars from [A-Za-z0-9._:-] — safe to embed in a header line. *)

val encode : reply -> string
(** The reply's wire form, ['\n']-terminated (header line plus payload
    lines for [Ok_reply]).  An invalid trace id is dropped rather than
    allowed to break the header. *)

val encode_rows :
  degraded:bool -> trace:string option -> Relation.Trel.t -> string
(** A result relation's [OK] reply, rendered and framed in one pass:
    the same bytes as [encode (Ok_reply {degraded; trace; payload})]
    where [payload] is the non-empty lines of
    [Tsql.Pretty.result_to_string rel]. *)

type header =
  | H_ok of { count : int; degraded : bool; trace : string option }
  | H_err of string
  | H_busy of string
  | H_pong
  | H_bye

val parse_header : string -> (header, string) result
(** Parse a reply's first line.  [Error _] describes the malformed
    header — a protocol violation, not a server-side statement error. *)

val sleep_request : string -> float option
(** [Some ms] when the line is a [SLEEP <ms>] request. *)

val metrics_request : string -> bool
(** Whether the line is the [METRICS] verb or the [SHOW METRICS]
    statement (case-insensitive, with an optional [;]): both are
    answered on the event loop with the same exposition. *)

val slo_request : string -> bool
(** Whether the line is the [SLO] verb (case-insensitive): the latest
    burn-rate report, answered on the event loop like [METRICS]. *)

val trace_dump_request : string -> (string option, string) result option
(** [Some (Ok id)] when the line is [TRACE DUMP [<id>]] ([None] = dump
    everything), [Some (Error _)] when it is a TRACE DUMP with a
    malformed id, [None] when the line is not a TRACE DUMP at all. *)

val split_trace : string -> (string option * string, string) result
(** Split an optional [TRACE <id>] prefix off a statement line:
    [Ok (Some id, statement)] when prefixed, [Ok (None, line)] when
    not.  [Error _] on a malformed prefix (bad id, missing statement).
    [TRACE DUMP] lines pass through unprefixed — detect them with
    {!trace_dump_request} first. *)
