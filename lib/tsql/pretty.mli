(** Rendering query results.

    A result relation prints as a table with one column per schema column
    plus a final [valid] column, e.g. for the paper's
    [SELECT COUNT(Name) FROM Employed]:

    {v
    +-------------+---------+
    | count(Name) | valid   |
    +-------------+---------+
    |           0 | [0,6]   |
    |           1 | [7,7]   |
    |           2 | [8,12]  |
    |           1 | [13,17] |
    |           3 | [18,20] |
    |           2 | [21,21] |
    |           1 | [22,oo] |
    +-------------+---------+
    v}

    Cells made only of digits, ['.'] and ['-'] are right-aligned, every
    other cell left-aligned; NULL is an empty cell, Float cells print
    with [%g]. *)

val result_to_string : Relation.Trel.t -> string
(** The table, its lines joined by ['\n'], with no final newline. *)

val framed : header:(int -> string) -> Relation.Trel.t -> string
(** [framed ~header rel] is [header n] followed by the table as [n]
    ['\n']-terminated lines, built in one buffer of exactly its size.
    The lines are those of {!result_to_string} split at every ['\n'] —
    a cell holding ['\n'] breaks its row — with empty lines dropped and
    ['\r'] removed, so no line can break a line protocol's framing. *)

val print_result : Relation.Trel.t -> unit
