(** Statement kinds, the label the network server's per-kind request
    metrics and report rows carry. *)

val kind_of : Ast.statement -> string
(** The statement's display kind (["select"], ["insert"], ...). *)
