(** Recursive-descent parser for the TSQL2 subset (grammar in {!Ast}). *)

val parse : string -> (Ast.query, string) result
(** Parse one query.  Errors name the offending token and its byte
    offset, e.g. ["expected FROM but found GROUP at offset 18"]. *)

val parse_statement : string -> (Ast.statement, string) result
(** Parse one statement (query or view DDL / DML), optionally
    semicolon-terminated. *)

