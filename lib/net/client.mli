(** A small blocking client for the {!Server} line protocol, used by
    the CLI [client] subcommand, the bench load generator and the
    tests.

    One request at a time: {!request} sends a line and reads the full
    framed reply.  For pipelined or asynchronous use, {!send} and
    {!read_reply} are exposed separately (e.g. to park a [SLEEP] on the
    server while probing it from another connection). *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** Open a TCP connection (default host ["127.0.0.1"]).
    @raise Unix.Unix_error when the connection is refused. *)

val send : ?trace:string -> t -> string -> unit
(** Write one request line (a trailing newline is added).  [?trace]
    prepends a [TRACE <id>] prefix, tagging the statement with a
    client-chosen request id the server echoes in the OK header. *)

val read_reply : t -> (Protocol.reply, string) result
(** Read one framed reply; [Error] describes a protocol violation or an
    unexpected end of input (a closed or reset connection). *)

val request : ?trace:string -> t -> string -> (Protocol.reply, string) result
(** {!send} then {!read_reply}. *)

val close : t -> unit
(** Close the socket (idempotent). *)
