(* Tests for the TSQL2 subset: lexer, parser, semantic analysis, and query
   evaluation over the paper's Employed relation (Section 2 / Table 1). *)

open Relation

let catalog = Tsql.Catalog.with_builtins ()

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let run q =
  match Tsql.Eval.query catalog q with
  | Ok rel -> rel
  | Error msg -> Alcotest.fail (q ^ " -> " ^ msg)

let expect_error q fragment =
  match Tsql.Eval.query catalog q with
  | Ok _ -> Alcotest.fail ("expected failure: " ^ q)
  | Error msg ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i =
          i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
        in
        go 0
      in
      if not (contains msg fragment) then
        Alcotest.fail (Printf.sprintf "error %S lacks %S" msg fragment)

let row_values rel =
  List.map
    (fun t ->
      ( Array.to_list (Array.map Value.to_string (Tuple.values t)),
        Temporal.Interval.to_string (Tuple.valid t) ))
    (Trel.tuples rel)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tokens_of s =
  match Tsql.Lexer.tokenize s with
  | Ok toks -> List.map fst toks
  | Error msg -> Alcotest.fail msg

let test_lexer_keywords_case_insensitive () =
  Alcotest.(check bool) "mixed case" true
    (tokens_of "SeLeCt FrOm" = [ Tsql.Lexer.SELECT; Tsql.Lexer.FROM; Tsql.Lexer.EOF ])

let test_lexer_operators () =
  Alcotest.(check bool) "ops" true
    (tokens_of "= <> < <= > >="
    = Tsql.Lexer.[ EQ; NEQ; LT; LE; GT; GE; EOF ])

let test_lexer_literals () =
  Alcotest.(check bool) "int/float/string" true
    (tokens_of "42 4.5 'it''s'"
    = Tsql.Lexer.[ INT 42; FLOAT 4.5; STRING "it's"; EOF ])

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (Result.is_error (Tsql.Lexer.tokenize "select @"));
  Alcotest.(check bool) "unterminated string" true
    (Result.is_error (Tsql.Lexer.tokenize "select 'oops"))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse q =
  match Tsql.Parser.parse q with
  | Ok ast -> ast
  | Error msg -> Alcotest.fail (q ^ " -> " ^ msg)

let test_parser_roundtrip () =
  List.iter
    (fun q ->
      let ast = parse q in
      Alcotest.(check string) q q (Tsql.Ast.to_string ast))
    [
      "SELECT COUNT(Name) FROM Employed";
      "SELECT COUNT(*) FROM Employed";
      "SELECT Dept, AVG(Salary) FROM Employed GROUP BY Dept";
      "SELECT SUM(salary) FROM Employed WHERE salary >= 40000 AND name <> 'Bob'";
      "SELECT MIN(salary), MAX(salary) FROM Employed GROUP BY SPAN 10";
      "SELECT COUNT(*) FROM Employed USING ktree(4)";
      "SELECT COUNT(*) FROM Employed USING linked_list";
    ]

(* Printed literals read back unchanged: a query with any non-negative
   int, finite non-negative float or quote-bearing string in its WHERE
   clause parses back from its printed text to the same query. *)
let prop_literals_round_trip =
  let literal =
    QCheck2.Gen.(
      oneof
        [
          map (fun n -> Tsql.Ast.Lint n) (oneof [ nat; map (fun n -> n land max_int) int ]);
          map
            (fun f -> Tsql.Ast.Lfloat f)
            (oneof
               [
                 oneofl [ 0.; 0.1; 1234567.5; 1e21; 1e-300; 5e-324; max_float ];
                 map
                   (fun f -> if Float.is_finite f then Float.abs f else 0.5)
                   float;
               ]);
          map
            (fun s -> Tsql.Ast.Lstring s)
            (oneof
               [
                 oneofl [ "O'Brien"; "'"; "''"; "it's'" ];
                 string_size
                   ~gen:(frequency [ (3, printable); (1, return '\'') ])
                   (int_bound 10);
               ]);
        ])
  in
  let query =
    QCheck2.Gen.(
      map
        (fun preds ->
          {
            Tsql.Ast.select =
              [ Tsql.Ast.Aggregate { fn = Count; arg = None; distinct = false } ];
            from = "t";
            join = None;
            during = None;
            where =
              List.mapi
                (fun i (op, value) ->
                  { Tsql.Ast.column = Printf.sprintf "c%d" i; op; value })
                preds;
            group_by = [];
            grouping = By_instant;
            using = None;
            on_error = None;
          })
        (list_size (int_range 1 3)
           (pair (oneofl Tsql.Ast.[ Eq; Neq; Lt; Le; Gt; Ge ]) literal)))
  in
  QCheck2.Test.make ~name:"printed WHERE literals parse back" ~count:500
    ~print:Tsql.Ast.to_string query (fun q ->
      Tsql.Parser.parse (Tsql.Ast.to_string q) = Ok q)

let test_parser_semicolon_and_instant () =
  let ast = parse "select count(*) from employed group by instant;" in
  Alcotest.(check bool) "instant grouping" true
    (ast.Tsql.Ast.grouping = Tsql.Ast.By_instant);
  Alcotest.(check string) "relation" "employed" ast.Tsql.Ast.from

let test_parser_errors () =
  List.iter
    (fun (q, fragment) ->
      match Tsql.Parser.parse q with
      | Ok _ -> Alcotest.fail ("expected syntax error: " ^ q)
      | Error msg ->
          let contains hay needle =
            let lh = String.length hay and ln = String.length needle in
            let rec go i =
              i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
            in
            go 0
          in
          if not (contains msg fragment) then
            Alcotest.fail (Printf.sprintf "%S lacks %S" msg fragment))
    [
      ("COUNT(*) FROM Employed", "expected SELECT");
      ("SELECT FROM Employed", "a column or aggregate");
      ("SELECT COUNT(*) Employed", "expected FROM");
      ("SELECT COUNT(* FROM Employed", "')'");
      ("SELECT SUM(*) FROM Employed", "only COUNT(*)");
      ("SELECT COUNT(*) FROM Employed WHERE x", "a comparison operator");
      ("SELECT COUNT(*) FROM Employed WHERE x = ", "a literal");
      ("SELECT COUNT(*) FROM Employed GROUP BY SPAN 0", "must be positive");
      ("SELECT COUNT(*) FROM Employed GROUP BY SPAN 5, INSTANT",
       "multiple temporal groupings");
      ("SELECT COUNT(*) FROM Employed extra", "end of query");
    ]

(* ------------------------------------------------------------------ *)
(* Semantic analysis                                                   *)
(* ------------------------------------------------------------------ *)

let test_semant_unknown_relation () =
  expect_error "SELECT COUNT(*) FROM Nowhere" "unknown relation"

let test_semant_unknown_column () =
  expect_error "SELECT COUNT(dept) FROM Employed" "unknown column";
  expect_error "SELECT COUNT(*) FROM Employed WHERE dept = 1" "unknown column";
  expect_error "SELECT COUNT(*) FROM Employed GROUP BY dept" "unknown column"

let test_semant_requires_aggregate () =
  expect_error "SELECT name FROM Employed" "at least one aggregate"

let test_semant_bare_column_needs_group_by () =
  expect_error "SELECT name, COUNT(*) FROM Employed" "must appear in GROUP BY"

let test_semant_numeric_aggregates () =
  expect_error "SELECT SUM(name) FROM Employed" "not numeric";
  expect_error "SELECT AVG(name) FROM Employed" "not numeric"

let test_semant_count_needs_no_column () =
  expect_error "SELECT SUM(*) FROM Employed" "only COUNT(*)"

let test_semant_literal_types () =
  expect_error "SELECT COUNT(*) FROM Employed WHERE salary = 'abc'"
    "does not match";
  expect_error "SELECT COUNT(*) FROM Employed WHERE name = 42" "does not match"

let test_semant_unknown_algorithm () =
  expect_error "SELECT COUNT(*) FROM Employed USING btree" "unknown algorithm"

let test_semant_case_insensitive_columns () =
  (* The paper spells it COUNT(Name) over a lowercase schema. *)
  let rel = run "SELECT COUNT(Name) FROM Employed" in
  Alcotest.(check int) "works" 7 (Trel.cardinality rel)

let test_semant_explain_mentions_strategy () =
  match Tsql.Eval.explain catalog "SELECT COUNT(*) FROM Employed" with
  | Error msg -> Alcotest.fail msg
  | Ok text ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i =
          i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
        in
        go 0
      in
      (* COUNT is invertible, so the optimizer picks the delta-sweep. *)
      Alcotest.(check bool) "names an algorithm" true (contains text "sweep")

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let test_eval_table1 () =
  (* The paper's Section 5.1 query and Table 1 result. *)
  let rel = run "SELECT COUNT(Name) FROM Employed" in
  Alcotest.(check (list (pair (list string) string)))
    "Table 1"
    [
      ([ "0" ], "[0,6]"); ([ "1" ], "[7,7]"); ([ "2" ], "[8,12]");
      ([ "1" ], "[13,17]"); ([ "3" ], "[18,20]"); ([ "2" ], "[21,21]");
      ([ "1" ], "[22,oo]");
    ]
    (row_values rel)

let test_eval_all_algorithms_same_table1 () =
  List.iter
    (fun algo ->
      let rel =
        run (Printf.sprintf "SELECT COUNT(Name) FROM Employed USING %s" algo)
      in
      Alcotest.(check int) algo 7 (Trel.cardinality rel))
    [ "aggregation_tree"; "linked_list"; "two_scan"; "balanced_tree"; "ktree(3)" ]

let test_eval_where_filters () =
  let rel = run "SELECT COUNT(*) FROM Employed WHERE salary >= 40000" in
  Alcotest.(check (list (pair (list string) string)))
    "well-paid only"
    [
      ([ "0" ], "[0,7]"); ([ "1" ], "[8,17]"); ([ "2" ], "[18,20]");
      ([ "1" ], "[21,oo]");
    ]
    (row_values rel)

let test_eval_group_by_attribute () =
  let rel = run "SELECT name, COUNT(*) FROM Employed GROUP BY name" in
  Alcotest.(check (list (pair (list string) string)))
    "per person, clipped to their lifespan"
    [
      ([ "Karen"; "1" ], "[8,20]");
      ([ "Nathan"; "1" ], "[7,12]");
      ([ "Nathan"; "0" ], "[13,17]");
      ([ "Nathan"; "1" ], "[18,21]");
      ([ "Richard"; "1" ], "[18,oo]");
    ]
    (row_values rel)

let test_eval_avg_null_in_gap () =
  let rel = run "SELECT name, AVG(salary) FROM Employed GROUP BY name" in
  let nathan_gap =
    List.find
      (fun (values, valid) ->
        List.hd values = "Nathan" && valid = "[13,17]")
      (row_values rel)
  in
  Alcotest.(check string) "NULL average in employment gap" ""
    (List.nth (fst nathan_gap) 1)

let test_eval_multiple_aggregates_zipped () =
  let rel = run "SELECT MIN(salary), MAX(salary), COUNT(*) FROM Employed" in
  let at_19 =
    List.find (fun (_, valid) -> valid = "[18,20]") (row_values rel)
  in
  Alcotest.(check (list string)) "min,max,count over [18,20]"
    [ "37000"; "45000"; "3" ] (fst at_19)

let test_eval_sum () =
  let rel = run "SELECT SUM(salary) FROM Employed" in
  let at_19 =
    List.find (fun (_, valid) -> valid = "[18,20]") (row_values rel)
  in
  Alcotest.(check (list string)) "sum over [18,20]" [ "122000" ] (fst at_19)

let test_eval_span_grouping () =
  let rel = run "SELECT COUNT(*) FROM Employed GROUP BY SPAN 10" in
  Alcotest.(check (list (pair (list string) string)))
    "decades"
    [
      ([ "2" ], "[0,9]"); ([ "4" ], "[10,19]"); ([ "3" ], "[20,29]");
      ([ "1" ], "[30,oo]");
    ]
    (row_values rel)

let test_eval_duplicate_aggregates_renamed () =
  let rel = run "SELECT COUNT(*), COUNT(*) FROM Employed" in
  let cols =
    List.map (fun c -> c.Schema.name) (Schema.columns (Trel.schema rel))
  in
  Alcotest.(check (list string)) "unique names" [ "count(*)"; "count(*)_2" ]
    cols

let test_eval_coalescing () =
  (* MAX(salary) is 45000 throughout [8,20]: three constant intervals
     coalesce into one row. *)
  let rel = run "SELECT MAX(salary) FROM Employed" in
  Alcotest.(check bool) "coalesced" true
    (List.exists (fun (_, valid) -> valid = "[8,20]") (row_values rel))

let test_eval_ktree_hint_on_unsorted_fails_cleanly () =
  (* Employed is 3-ordered; hinting k=0 must fail with a clear message,
     not a wrong answer. *)
  expect_error "SELECT COUNT(*) FROM Employed USING ktree(0)" "not k-ordered"

let test_eval_empty_relation () =
  let empty =
    Trel.create (Schema.of_pairs [ ("x", Value.Tint) ]) []
  in
  let cat = Tsql.Catalog.add catalog "Empty" empty in
  match Tsql.Eval.query cat "SELECT COUNT(*) FROM Empty" with
  | Error msg -> Alcotest.fail msg
  | Ok rel ->
      Alcotest.(check (list (pair (list string) string)))
        "single empty segment"
        [ ([ "0" ], "[0,oo]") ]
        (row_values rel)

let test_eval_where_null_comparisons_unknown () =
  let with_null =
    Trel.create Fixtures.employed_schema
      [
        Tuple.make [| Value.Str "Ghost"; Value.Null |]
          (Temporal.Interval.of_ints 0 5);
      ]
  in
  let cat = Tsql.Catalog.add catalog "Ghosts" with_null in
  match Tsql.Eval.query cat "SELECT COUNT(*) FROM Ghosts WHERE salary < 10" with
  | Error msg -> Alcotest.fail msg
  | Ok rel ->
      (* NULL salary: predicate unknown -> tuple filtered out. *)
      Alcotest.(check (list (pair (list string) string)))
        "null filtered" [ ([ "0" ], "[0,oo]") ] (row_values rel)


let test_eval_during_window () =
  let rel = run "SELECT COUNT(Name) FROM Employed DURING [8,20]" in
  Alcotest.(check (list (pair (list string) string)))
    "window [8,20]"
    [ ([ "2" ], "[8,12]"); ([ "1" ], "[13,17]"); ([ "3" ], "[18,20]") ]
    (row_values rel)

let test_eval_during_unbounded () =
  let rel = run "SELECT COUNT(Name) FROM Employed DURING [21,oo]" in
  Alcotest.(check (list (pair (list string) string)))
    "window [21,oo]"
    [ ([ "2" ], "[21,21]"); ([ "1" ], "[22,oo]") ]
    (row_values rel)

let test_eval_during_with_group_by () =
  let rel =
    run "SELECT name, COUNT(*) FROM Employed DURING [8,20] GROUP BY name"
  in
  Alcotest.(check (list (pair (list string) string)))
    "grouped window"
    [
      ([ "Karen"; "1" ], "[8,20]");
      ([ "Nathan"; "1" ], "[8,12]");
      ([ "Nathan"; "0" ], "[13,17]");
      ([ "Nathan"; "1" ], "[18,20]");
      ([ "Richard"; "1" ], "[18,20]");
    ]
    (row_values rel)

let test_during_roundtrip () =
  List.iter
    (fun q ->
      match Tsql.Parser.parse q with
      | Error msg -> Alcotest.fail msg
      | Ok ast -> Alcotest.(check string) q q (Tsql.Ast.to_string ast))
    [
      "SELECT COUNT(*) FROM Employed DURING [8,20]";
      "SELECT COUNT(*) FROM Employed DURING [0,oo]";
    ]

let test_during_syntax_errors () =
  List.iter
    (fun (q, fragment) ->
      match Tsql.Parser.parse q with
      | Ok _ -> Alcotest.fail ("expected error: " ^ q)
      | Error msg ->
          if not (contains msg fragment) then
            Alcotest.fail (Printf.sprintf "%S lacks %S" msg fragment))
    [
      ("SELECT COUNT(*) FROM E DURING [9,5]", "stops before it starts");
      ("SELECT COUNT(*) FROM E DURING [5", "','");
      ("SELECT COUNT(*) FROM E DURING 5,9]", "'['");
      ("SELECT COUNT(*) FROM E DURING [5,x]", "a stop instant or oo");
    ]

let test_catalog_case_insensitive () =
  Alcotest.(check bool) "employed" true
    (Option.is_some (Tsql.Catalog.find catalog "eMpLoYeD"));
  Alcotest.(check (list string)) "names" [ "Employed" ]
    (Tsql.Catalog.names catalog)

let test_pretty_output_shape () =
  let rel = run "SELECT COUNT(Name) FROM Employed" in
  let text = Tsql.Pretty.result_to_string rel in
  let lines = String.split_on_char '\n' text in
  (* rule + header + rule + 7 rows + rule *)
  Alcotest.(check int) "lines" 11 (List.length lines);
  (* Paper Table 1, byte for byte as lib/tsql/pretty.mli documents it. *)
  Alcotest.(check string) "table 1"
    (String.concat "\n"
       [
         "+-------------+---------+";
         "| count(Name) | valid   |";
         "+-------------+---------+";
         "|           0 | [0,6]   |";
         "|           1 | [7,7]   |";
         "|           2 | [8,12]  |";
         "|           1 | [13,17] |";
         "|           3 | [18,20] |";
         "|           2 | [21,21] |";
         "|           1 | [22,oo] |";
         "+-------------+---------+";
       ])
    text

(* ------------------------------------------------------------------ *)
(* Statements: lexing, parsing, and printing                           *)
(* ------------------------------------------------------------------ *)

let test_lexer_statement_keywords () =
  Alcotest.(check bool) "ddl/dml keywords" true
    (tokens_of "create view as refresh drop insert into values delete"
    = Tsql.Lexer.
        [ CREATE; VIEW; AS; REFRESH; DROP; INSERT; INTO; VALUES; DELETE; EOF ])

let test_lexer_line_comments () =
  Alcotest.(check bool) "comment to end of line" true
    (tokens_of "select -- the whole query\n from -- trailing"
    = Tsql.Lexer.[ SELECT; FROM; EOF ])

let parse_statement s =
  match Tsql.Parser.parse_statement s with
  | Ok stmt -> stmt
  | Error msg -> Alcotest.fail (s ^ " -> " ^ msg)

let test_parse_statement_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        s s
        (Tsql.Ast.statement_to_string (parse_statement s)))
    [
      "SELECT COUNT(Name) FROM Employed";
      "CREATE VIEW head_count AS SELECT COUNT(*) FROM Employed";
      "REFRESH VIEW head_count";
      "DROP VIEW head_count";
      "INSERT INTO Employed VALUES ('Ann', 42000) DURING [3,9]";
      "DELETE FROM Employed WHERE Name = 'Ann'";
      "DELETE FROM Employed";
    ]

let test_parse_script () =
  match
    Tsql.Parser.parse_script
      "-- a comment-only line\n\
       CREATE VIEW v AS SELECT COUNT(*) FROM Employed;\n\
       SELECT * FROM v;\n\
       DROP VIEW v"
  with
  | Error msg -> Alcotest.fail msg
  | Ok statements ->
      Alcotest.(check int) "three statements" 3 (List.length statements)

let test_parse_script_empty_statements_skipped () =
  match Tsql.Parser.parse_script ";;SELECT COUNT(*) FROM Employed;;" with
  | Error msg -> Alcotest.fail msg
  | Ok statements -> Alcotest.(check int) "one" 1 (List.length statements)

let test_parse_statement_errors () =
  List.iter
    (fun (s, fragment) ->
      match Tsql.Parser.parse_statement s with
      | Ok _ -> Alcotest.fail ("expected syntax error: " ^ s)
      | Error msg ->
          if not (contains msg fragment) then
            Alcotest.fail (Printf.sprintf "%S lacks %S" msg fragment))
    [
      ("CREATE head AS SELECT COUNT(*) FROM E", "VIEW");
      ("INSERT Employed VALUES (1)", "INTO");
      ("INSERT INTO Employed VALUES (1)", "DURING");
      ("DELETE Employed", "FROM");
    ]

(* ------------------------------------------------------------------ *)
(* Session: live views, writes, and the query cache                    *)
(* ------------------------------------------------------------------ *)

let session () = Tsql.Session.create (Tsql.Catalog.with_builtins ())

let exec s q =
  match Tsql.Session.exec s q with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.fail (q ^ " -> " ^ msg)

let exec_rows s q =
  match exec s q with
  | Tsql.Session.Rows rel -> rel
  | Tsql.Session.Ack msg -> Alcotest.fail (q ^ " -> unexpected ack: " ^ msg)

let exec_err s q =
  match Tsql.Session.exec s q with
  | Ok _ -> Alcotest.fail ("expected failure: " ^ q)
  | Error msg -> msg

let test_session_view_matches_direct_query () =
  let s = session () in
  (match exec s "CREATE VIEW hc AS SELECT COUNT(Name) FROM Employed" with
  | Tsql.Session.Ack msg ->
      Alcotest.(check bool) "incremental" true (contains msg "incremental")
  | Tsql.Session.Rows _ -> Alcotest.fail "expected an ack");
  Alcotest.(check (option string))
    "strategy" (Some "incremental")
    (Tsql.Session.view_strategy s "hc");
  let via_view = exec_rows s "SELECT * FROM hc" in
  let direct = run "SELECT COUNT(Name) FROM Employed" in
  Alcotest.(check bool)
    "same rows" true
    (row_values via_view = row_values direct)

(* Every path of a SELECT evaluates the plan of its own AST, so a quote
   inside a string and a float with more than six significant digits
   answer on a guarded, degraded or profiled run exactly as on the plain
   one. *)
let test_session_guarded_paths_keep_literals () =
  let schema =
    Schema.of_pairs [ ("name", Value.Tstring); ("pay", Value.Tfloat) ]
  in
  let staff =
    Trel.create schema
      (List.map
         (fun (name, pay, a, b) ->
           Tuple.make [| Value.Str name; Value.Float pay |]
             (Temporal.Interval.of_ints a b))
         [
           ("O'Brien", 1_000_000., 0, 10);
           ("Ada", 1_234_567.5, 5, 15);
           ("Bob", 1_234_567.25, 8, 20);
           ("O'Brien", 2_000_000., 5, 30);
         ])
  in
  let s =
    Tsql.Session.create
      (Tsql.Catalog.add (Tsql.Catalog.with_builtins ()) "Staff" staff)
  in
  List.iter
    (fun q ->
      let plain = row_values (exec_rows s q) in
      (* Both filters keep exactly two overlapping tuples. *)
      Alcotest.(check bool) ("plain answer peaks at 2: " ^ q) true
        (List.mem [ "2" ] (List.map fst plain)
        && not (List.mem [ "3" ] (List.map fst plain)));
      let stmt =
        match Tsql.Parser.parse_statement q with
        | Ok st -> st
        | Error m -> Alcotest.fail m
      in
      let same path = function
        | Ok (Tsql.Session.Rows rel) ->
            Alcotest.(check (list (pair (list string) string)))
              (path ^ ": " ^ q) plain (row_values rel)
        | Ok (Tsql.Session.Ack m) -> Alcotest.fail (path ^ ": ack " ^ m)
        | Error m -> Alcotest.fail (path ^ ": " ^ m)
      in
      same "deadline" (Tsql.Session.exec_statement ~deadline_ms:1e6 s stmt);
      same "fallback"
        (Tsql.Session.exec_statement ~on_error:Tempagg.Engine.Fallback s stmt);
      match exec s ("EXPLAIN ANALYZE " ^ q) with
      | Tsql.Session.Ack report ->
          Alcotest.(check bool) ("EXPLAIN ANALYZE output: " ^ q) true
            (contains report
               (Printf.sprintf "output: %d segment(s)" (List.length plain)))
      | Tsql.Session.Rows _ -> Alcotest.fail "EXPLAIN ANALYZE: expected an ack")
    [
      "SELECT COUNT(*) FROM Staff WHERE name = 'O''Brien'";
      "SELECT COUNT(*) FROM Staff WHERE pay < 1234567.5";
    ]

let test_session_insert_updates_view () =
  let s = session () in
  ignore (exec s "CREATE VIEW hc AS SELECT COUNT(Name) FROM Employed");
  ignore (exec s "INSERT INTO Employed VALUES ('Zoe', 60000) DURING [12,18]");
  ignore (exec s "INSERT INTO Employed VALUES ('Ada', 50000) DURING [0,3]");
  let via_view = exec_rows s "SELECT * FROM hc" in
  (* The reference: a fresh batch query over the session's mutated base. *)
  let direct =
    match
      Tsql.Eval.query (Tsql.Session.catalog s) "SELECT COUNT(Name) FROM Employed"
    with
    | Ok rel -> rel
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool)
    "view tracks writes" true
    (row_values via_view = row_values direct)

let test_session_delete_updates_view () =
  let s = session () in
  ignore (exec s "CREATE VIEW hc AS SELECT COUNT(Name) FROM Employed");
  let before = exec_rows s "SELECT * FROM hc" in
  ignore (exec s "INSERT INTO Employed VALUES ('Zoe', 60000) DURING [12,18]");
  (match exec s "DELETE FROM Employed WHERE Name = 'Zoe'" with
  | Tsql.Session.Ack msg ->
      Alcotest.(check bool) "one victim" true (contains msg "1")
  | Tsql.Session.Rows _ -> Alcotest.fail "expected an ack");
  let after = exec_rows s "SELECT * FROM hc" in
  Alcotest.(check bool)
    "insert then delete is a no-op" true
    (row_values before = row_values after)

let test_session_view_window_and_min_max () =
  let s = session () in
  ignore (exec s "CREATE VIEW sal AS SELECT MIN(Salary), MAX(Salary) FROM Employed");
  ignore (exec s "DELETE FROM Employed WHERE Name = 'Nathan'");
  let via_view = exec_rows s "SELECT * FROM sal DURING [8,20]" in
  let direct =
    match
      Tsql.Eval.query (Tsql.Session.catalog s)
        "SELECT MIN(Salary), MAX(Salary) FROM Employed DURING [8,20]"
    with
    | Ok rel -> rel
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool)
    "min/max survive a delete (lazy rebuild)" true
    (row_values via_view = row_values direct)

let test_session_grouped_view_recomputes () =
  let s = session () in
  (match exec s "CREATE VIEW by_name AS SELECT Name, COUNT(*) FROM Employed GROUP BY Name" with
  | Tsql.Session.Ack msg ->
      Alcotest.(check bool) "recompute" true (contains msg "recompute")
  | Tsql.Session.Rows _ -> Alcotest.fail "expected an ack");
  Alcotest.(check (option string))
    "strategy" (Some "recompute")
    (Tsql.Session.view_strategy s "by_name");
  let before = (Tsql.Session.stats s).Live.Stats.rebuilds in
  ignore (exec s "INSERT INTO Employed VALUES ('Zoe', 60000) DURING [1,2]");
  let rows = exec_rows s "SELECT * FROM by_name" in
  Alcotest.(check bool)
    "stale view rebuilt on read" true
    ((Tsql.Session.stats s).Live.Stats.rebuilds > before);
  Alcotest.(check bool)
    "new group present" true
    (List.exists (fun (vs, _) -> List.mem "Zoe" vs) (row_values rows))

let test_session_cache_hits_and_precise_invalidation () =
  let s = session () in
  ignore (exec s "CREATE VIEW hc AS SELECT COUNT(Name) FROM Employed");
  let q = "SELECT * FROM hc DURING [0,20]" in
  ignore (exec_rows s q);
  let stats = Tsql.Session.stats s in
  let hits0 = stats.Live.Stats.cache_hits in
  ignore (exec_rows s q);
  Alcotest.(check int) "second read hits" (hits0 + 1) stats.Live.Stats.cache_hits;
  (* A write entirely outside the cached window leaves the entry alive... *)
  ignore (exec s "INSERT INTO Employed VALUES ('Far', 1000) DURING [50,60]");
  ignore (exec_rows s q);
  Alcotest.(check int)
    "disjoint write keeps the entry" (hits0 + 2) stats.Live.Stats.cache_hits;
  (* ...but an overlapping write drops exactly that entry. *)
  let invalidations0 = stats.Live.Stats.cache_invalidations in
  ignore (exec s "INSERT INTO Employed VALUES ('Near', 1000) DURING [15,25]");
  Alcotest.(check bool)
    "overlapping write invalidates" true
    (stats.Live.Stats.cache_invalidations > invalidations0);
  ignore (exec_rows s q);
  Alcotest.(check int)
    "post-invalidation read misses" (hits0 + 2) stats.Live.Stats.cache_hits;
  (* The recomputed entry is correct (compare against a fresh query). *)
  let via_view = exec_rows s q in
  let direct =
    match
      Tsql.Eval.query (Tsql.Session.catalog s)
        "SELECT COUNT(Name) FROM Employed DURING [0,20]"
    with
    | Ok rel -> rel
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool)
    "cached result correct" true
    (row_values via_view = row_values direct)

let test_session_refresh_and_drop () =
  let s = session () in
  ignore (exec s "CREATE VIEW hc AS SELECT COUNT(*) FROM Employed");
  let v0 = Tsql.Session.view_version s "hc" in
  (match exec s "REFRESH VIEW hc" with
  | Tsql.Session.Ack _ -> ()
  | Tsql.Session.Rows _ -> Alcotest.fail "expected an ack");
  Alcotest.(check bool)
    "refresh bumps the version" true
    (Tsql.Session.view_version s "hc" > v0);
  ignore (exec s "DROP VIEW hc");
  Alcotest.(check (list string)) "gone" [] (Tsql.Session.view_names s);
  ignore (exec_err s "SELECT * FROM hc")

let test_session_rejections () =
  let s = session () in
  ignore (exec s "CREATE VIEW hc AS SELECT COUNT(*) FROM Employed");
  Alcotest.(check bool) "star on a base table" true
    (contains (exec_err s "SELECT * FROM Employed") "view");
  Alcotest.(check bool) "insert into a view" true
    (contains
       (exec_err s "INSERT INTO hc VALUES ('x', 1) DURING [0,1]")
       "view");
  Alcotest.(check bool) "view over a view" true
    (contains (exec_err s "CREATE VIEW h2 AS SELECT COUNT(*) FROM hc") "view");
  Alcotest.(check bool) "clashing base name" true
    (contains
       (exec_err s "CREATE VIEW Employed AS SELECT COUNT(*) FROM Employed")
       "base relation");
  Alcotest.(check bool) "refresh unknown" true
    (contains (exec_err s "REFRESH VIEW nope") "nope");
  Alcotest.(check bool)
    "grouped select against a view" true
    (String.length (exec_err s "SELECT Name, COUNT(*) FROM hc GROUP BY Name")
    > 0)

let test_show_trace_and_recorder () =
  (match Tsql.Parser.parse_statement "show trace" with
  | Ok Tsql.Ast.Show_trace -> ()
  | Ok other ->
      Alcotest.fail ("parsed to " ^ Tsql.Ast.statement_to_string other)
  | Error msg -> Alcotest.fail msg);
  (match Tsql.Parser.parse_statement "SHOW RECORDER;" with
  | Ok Tsql.Ast.Show_recorder -> ()
  | Ok other ->
      Alcotest.fail ("parsed to " ^ Tsql.Ast.statement_to_string other)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string)
    "canonical form" "SHOW TRACE"
    (Tsql.Ast.statement_to_string Tsql.Ast.Show_trace);
  Alcotest.(check string)
    "canonical form" "SHOW RECORDER"
    (Tsql.Ast.statement_to_string Tsql.Ast.Show_recorder);
  (match Tsql.Parser.parse_statement "SHOW nonsense" with
  | Ok _ -> Alcotest.fail "unknown SHOW must fail"
  | Error msg ->
      Alcotest.(check bool) "error lists the new forms" true
        (contains msg "TRACE" && contains msg "RECORDER"));
  let s = session () in
  (match exec s "SHOW TRACE" with
  | Tsql.Session.Ack msg ->
      Alcotest.(check bool) "status line" true
        (contains msg "trace:" && contains msg "ring-capacity=")
  | Tsql.Session.Rows _ -> Alcotest.fail "expected an ack");
  match exec s "SHOW RECORDER" with
  | Tsql.Session.Ack msg ->
      Alcotest.(check bool) "summary line" true
        (contains msg "recorder:" && contains msg "pinned=")
  | Tsql.Session.Rows _ -> Alcotest.fail "expected an ack"

(* ------------------------------------------------------------------ *)
(* Serve                                                               *)
(* ------------------------------------------------------------------ *)

let test_serve_reports_latencies () =
  let replies, report =
    Server_harness.run_lines
      [
        "CREATE VIEW hc AS SELECT COUNT(*) FROM Employed;";
        "SELECT * FROM hc;";
        "INSERT INTO Employed VALUES ('Zoe', 1) DURING [2,4];";
        "SELECT * FROM hc;";
        "SELECT * FROM nonexistent;";
        "DROP VIEW hc";
      ]
  in
  Alcotest.(check int) "ops" 6 report.Net.Server.requests;
  Alcotest.(check int) "one error" 1 report.Net.Server.errors;
  let selects = Server_harness.latency report "select" in
  Alcotest.(check int) "selects" 3 (Obs.Histogram.count selects);
  Alcotest.(check (float 0.)) "select errors" 1.
    (Server_harness.errors report "select");
  Alcotest.(check bool)
    "percentiles ordered" true
    (Obs.Histogram.percentile selects 0.5
     <= Obs.Histogram.percentile selects 0.99
    && Obs.Histogram.percentile selects 0.99 <= Obs.Histogram.max_value selects);
  let text = Net.Server.report_to_string report in
  Alcotest.(check bool) "report mentions kinds" true
    (contains text "create-view" && contains text "p99-us");
  Alcotest.(check bool) "the failed SELECT answered ERR" true
    (match List.nth replies 4 with
    | Ok (Net.Protocol.Err _) -> true
    | _ -> false)

(* A line that fails to parse answers ERR, and the next line still runs;
   a malformed TRACE prefix, refused before the statement parses, counts
   as an error too. *)
let test_serve_parse_error () =
  let replies, report =
    Server_harness.run_lines
      [
        "SELECT FROM ;";
        "TRACE bad!id SELECT 1";
        "SELECT COUNT(*) FROM Employed";
      ]
  in
  (match replies with
  | [
   Ok (Net.Protocol.Err _); Ok (Net.Protocol.Err _); Ok (Net.Protocol.Ok_reply _);
  ] ->
      ()
  | _ -> Alcotest.fail "expected ERR, ERR, then OK");
  Alcotest.(check int) "counted" 2 report.Net.Server.errors;
  Alcotest.(check (float 0.)) "as a parse error" 1.
    (Server_harness.errors report "parse-error");
  Alcotest.(check (float 0.)) "as a protocol error" 1.
    (Server_harness.errors report "protocol");
  Alcotest.(check bool) "report row for refused lines" true
    (contains (Net.Server.report_to_string report) "protocol")

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "tsql"
    [
      ( "lexer",
        [
          quick "keywords case-insensitive" test_lexer_keywords_case_insensitive;
          quick "operators" test_lexer_operators;
          quick "literals" test_lexer_literals;
          quick "errors" test_lexer_errors;
        ] );
      ( "parser",
        [
          quick "roundtrip" test_parser_roundtrip;
          QCheck_alcotest.to_alcotest ~long:false prop_literals_round_trip;
          quick "semicolon and INSTANT" test_parser_semicolon_and_instant;
          quick "syntax errors" test_parser_errors;
        ] );
      ( "semant",
        [
          quick "unknown relation" test_semant_unknown_relation;
          quick "unknown column" test_semant_unknown_column;
          quick "requires an aggregate" test_semant_requires_aggregate;
          quick "bare column needs GROUP BY"
            test_semant_bare_column_needs_group_by;
          quick "numeric aggregates" test_semant_numeric_aggregates;
          quick "star only for COUNT" test_semant_count_needs_no_column;
          quick "literal types" test_semant_literal_types;
          quick "unknown algorithm" test_semant_unknown_algorithm;
          quick "case-insensitive columns" test_semant_case_insensitive_columns;
          quick "explain mentions strategy" test_semant_explain_mentions_strategy;
        ] );
      ( "eval",
        [
          quick "Table 1" test_eval_table1;
          quick "all algorithms agree" test_eval_all_algorithms_same_table1;
          quick "WHERE filters" test_eval_where_filters;
          quick "GROUP BY attribute" test_eval_group_by_attribute;
          quick "NULL average in gaps" test_eval_avg_null_in_gap;
          quick "multiple aggregates zipped" test_eval_multiple_aggregates_zipped;
          quick "SUM" test_eval_sum;
          quick "GROUP BY SPAN" test_eval_span_grouping;
          quick "duplicate aggregates renamed"
            test_eval_duplicate_aggregates_renamed;
          quick "results coalesced" test_eval_coalescing;
          quick "bad ktree hint fails cleanly"
            test_eval_ktree_hint_on_unsorted_fails_cleanly;
          quick "DURING window" test_eval_during_window;
          quick "DURING unbounded" test_eval_during_unbounded;
          quick "DURING with GROUP BY" test_eval_during_with_group_by;
          quick "DURING roundtrip" test_during_roundtrip;
          quick "DURING syntax errors" test_during_syntax_errors;
          quick "empty relation" test_eval_empty_relation;
          quick "NULL comparisons are unknown"
            test_eval_where_null_comparisons_unknown;
          quick "catalog case-insensitive" test_catalog_case_insensitive;
          quick "pretty output" test_pretty_output_shape;
        ] );
      ( "statements",
        [
          quick "ddl/dml keywords" test_lexer_statement_keywords;
          quick "line comments" test_lexer_line_comments;
          quick "statement roundtrip" test_parse_statement_roundtrip;
          quick "script" test_parse_script;
          quick "empty statements skipped"
            test_parse_script_empty_statements_skipped;
          quick "statement syntax errors" test_parse_statement_errors;
        ] );
      ( "session",
        [
          quick "view matches direct query" test_session_view_matches_direct_query;
          quick "guarded paths keep literals"
            test_session_guarded_paths_keep_literals;
          quick "insert updates view" test_session_insert_updates_view;
          quick "delete updates view" test_session_delete_updates_view;
          quick "min/max across deletes" test_session_view_window_and_min_max;
          quick "grouped views recompute" test_session_grouped_view_recomputes;
          quick "cache hits and precise invalidation"
            test_session_cache_hits_and_precise_invalidation;
          quick "refresh and drop" test_session_refresh_and_drop;
          quick "rejections" test_session_rejections;
          quick "SHOW TRACE / SHOW RECORDER" test_show_trace_and_recorder;
        ] );
      ( "serve",
        [
          quick "latency report" test_serve_reports_latencies;
          quick "parse errors rejected" test_serve_parse_error;
        ] );
    ]
