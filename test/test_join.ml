(* The interval-join subsystem.

   Property tests pin the predicate algebra to [Interval.relate]
   (exactly one Allen relation per pair, compiled comparison windows
   agreeing with the constructive implementation, converses), and the
   endpoint sweep to the nested-loop oracle on random inputs — forever
   stops, duplicate endpoints and equal starts included.  Integration
   tests check the TSQL pipeline: join-then-aggregate equals
   materialize-then-aggregate for all five aggregates, partition
   pruning does not change answers, EXPLAIN prints the strategy and
   rationale, and a sweep that blows its memory budget falls back to
   the nested loop as a recorded degradation. *)

open Temporal

let c = Chronon.of_int
let iv = Interval.of_ints

let allen_preds =
  List.filter (fun p -> p <> Join.Predicate.Intersects) Join.Predicate.all

(* Small domain, frequent endpoint collisions, occasional forever. *)
let gen_interval =
  QCheck2.Gen.(
    let* s = int_bound 50 in
    let* len = int_bound 12 in
    let* unbounded = map (fun n -> n = 0) (int_bound 15) in
    if unbounded then return (Interval.from (c s)) else return (iv s (s + len)))

let gen_pair = QCheck2.Gen.pair gen_interval gen_interval

let print_pair (a, b) =
  Printf.sprintf "%s %s" (Interval.to_string a) (Interval.to_string b)

let exactly_one_relation =
  QCheck2.Test.make ~name:"exactly one Allen relation holds (compiled)"
    ~count:1000 ~print:print_pair gen_pair (fun (a, b) ->
      let holding =
        List.filter (fun p -> Join.Predicate.holds p a b) allen_preds
      in
      holding = [ Join.Predicate.Allen (Interval.relate a b) ])

let intersects_is_overlap =
  QCheck2.Test.make ~name:"INTERSECTS = Interval.overlaps" ~count:1000
    ~print:print_pair gen_pair (fun (a, b) ->
      Join.Predicate.holds Join.Predicate.Intersects a b
      = Interval.overlaps a b)

let inverse_is_converse =
  QCheck2.Test.make ~name:"inverse p on (b,a) = p on (a,b)" ~count:1000
    ~print:print_pair gen_pair (fun (a, b) ->
      List.for_all
        (fun p ->
          Join.Predicate.holds (Join.Predicate.inverse p) b a
          = Join.Predicate.holds p a b)
        Join.Predicate.all)

let result_interval_sound =
  QCheck2.Test.make ~name:"result_interval: intersection or hull" ~count:1000
    ~print:print_pair gen_pair (fun (a, b) ->
      List.for_all
        (fun p ->
          (not (Join.Predicate.holds p a b))
          ||
          let r = Join.Predicate.result_interval p a b in
          if Join.Predicate.intersecting p then
            Some r = Interval.intersect a b
          else r = Interval.hull a b)
        Join.Predicate.all)

(* Sweep vs oracle, every predicate, random inputs. *)
let gen_sides =
  QCheck2.Gen.(
    pair
      (array_size (int_range 0 25) gen_interval)
      (array_size (int_range 0 25) gen_interval))

let print_sides (l, r) =
  let side a =
    String.concat ";" (Array.to_list (Array.map Interval.to_string a))
  in
  Printf.sprintf "left=[%s] right=[%s]" (side l) (side r)

let sweep_equals_nested_loop =
  QCheck2.Test.make ~name:"sweep = nested loop (all 14 predicates)"
    ~count:300 ~print:print_sides gen_sides (fun (left, right) ->
      List.for_all
        (fun p ->
          Join.Engine.pairs Join.Engine.Sweep p left right
          = Join.Engine.pairs Join.Engine.Nested_loop p left right)
        Join.Predicate.all)

(* The evaluator clips both sides to the DURING window before joining;
   the strategies must still agree on clipped inputs. *)
let clip w side =
  Array.of_list
    (List.filter_map
       (fun ivl -> Interval.intersect ivl w)
       (Array.to_list side))

let sweep_equals_nested_loop_clipped =
  QCheck2.Test.make ~name:"sweep = nested loop under a random window"
    ~count:300
    ~print:(fun (sides, (lo, len)) ->
      Printf.sprintf "%s window=[%d,%d]" (print_sides sides) lo (lo + len))
    QCheck2.Gen.(pair gen_sides (pair (int_bound 50) (int_bound 30)))
    (fun ((left, right), (lo, len)) ->
      let w = iv lo (lo + len) in
      let left = clip w left and right = clip w right in
      List.for_all
        (fun p ->
          Join.Engine.pairs Join.Engine.Sweep p left right
          = Join.Engine.pairs Join.Engine.Nested_loop p left right)
        Join.Predicate.all)

(* Gapless map unit behaviour: lazy eviction during scans, dense slot
   reuse, instrument accounting. *)
let gapless_eviction () =
  let inst = Tempagg.Instrument.create () in
  let g = Join.Gapless.create ~instrument:inst () in
  Join.Gapless.insert g ~idx:0 ~expiry:5;
  Join.Gapless.insert g ~idx:1 ~expiry:3;
  Join.Gapless.insert g ~idx:2 ~expiry:9;
  Alcotest.(check int) "three live" 3 (Join.Gapless.length g);
  Alcotest.(check int) "three allocated" 3 (Tempagg.Instrument.live inst);
  let seen = ref [] in
  Join.Gapless.scan g ~now:4 (fun idx -> seen := idx :: !seen);
  Alcotest.(check (list int)) "expiry 3 evicted" [ 0; 2 ]
    (List.sort compare !seen);
  Alcotest.(check int) "two live after eviction" 2 (Join.Gapless.length g);
  Alcotest.(check int) "instrument freed" 2 (Tempagg.Instrument.live inst);
  Join.Gapless.clear g;
  Alcotest.(check int) "clear frees all" 0 (Tempagg.Instrument.live inst)

(* ------------------------------------------------------------------ *)
(* TSQL integration                                                    *)
(* ------------------------------------------------------------------ *)

let lschema =
  Relation.Schema.of_pairs
    [ ("name", Relation.Value.Tstring); ("salary", Relation.Value.Tint) ]

let rschema =
  Relation.Schema.of_pairs
    [ ("dept", Relation.Value.Tstring); ("load", Relation.Value.Tint) ]

let tuple values ivl = Relation.Tuple.make values ivl

let left_rel =
  Relation.Trel.create lschema
    [
      tuple [| Relation.Value.Str "a"; Relation.Value.Int 10 |] (iv 1 10);
      tuple [| Relation.Value.Str "b"; Relation.Value.Int 20 |] (iv 5 20);
      tuple [| Relation.Value.Str "c"; Relation.Value.Int 30 |] (iv 30 40);
      tuple [| Relation.Value.Str "d"; Relation.Value.Int 40 |]
        (Interval.from (c 45));
    ]

let right_rel =
  Relation.Trel.create rschema
    [
      tuple [| Relation.Value.Str "x"; Relation.Value.Int 1 |] (iv 8 15);
      tuple [| Relation.Value.Str "y"; Relation.Value.Int 2 |] (iv 18 35);
      tuple [| Relation.Value.Str "z"; Relation.Value.Int 3 |] (iv 41 44);
      tuple [| Relation.Value.Str "w"; Relation.Value.Int 4 |] (iv 50 60);
    ]

let catalog () =
  Tsql.Catalog.add (Tsql.Catalog.add (Tsql.Catalog.with_builtins ()) "l" left_rel)
    "r" right_rel

let rows rel =
  List.map
    (fun t -> (Array.to_list (Relation.Tuple.values t), Relation.Tuple.valid t))
    (Relation.Trel.tuples rel)

let check_query_rows what expected actual =
  match (expected, actual) with
  | Ok e, Ok a ->
      Alcotest.(check bool)
        (what ^ ": same rows")
        true
        (rows e = rows a)
  | Error m, _ | _, Error m -> Alcotest.fail (what ^ ": " ^ m)

(* Join-then-aggregate vs materialize-then-aggregate, all five
   aggregates in one statement.  The materialized relation carries the
   joined tuples the nested-loop oracle produces, so only the out-column
   names differ (qualified vs plain) — compare values and intervals. *)
let materialized_join pred =
  let jschema =
    Relation.Schema.of_pairs
      [
        ("lname", Relation.Value.Tstring);
        ("lsalary", Relation.Value.Tint);
        ("rdept", Relation.Value.Tstring);
        ("rload", Relation.Value.Tint);
      ]
  in
  let ltuples = Array.of_list (Relation.Trel.tuples left_rel) in
  let rtuples = Array.of_list (Relation.Trel.tuples right_rel) in
  let livs = Array.map Relation.Tuple.valid ltuples in
  let rivs = Array.map Relation.Tuple.valid rtuples in
  let out = ref [] in
  Join.Engine.run Join.Engine.Nested_loop pred ~left:livs ~right:rivs
    (fun l r ->
      out :=
        Relation.Tuple.make
          (Array.append
             (Relation.Tuple.values ltuples.(l))
             (Relation.Tuple.values rtuples.(r)))
          (Join.Predicate.result_interval pred livs.(l) rivs.(r))
        :: !out);
  Relation.Trel.create jschema (List.rev !out)

let aggregate_identity pred_name pred () =
  let cat =
    Tsql.Catalog.add (catalog ()) "j" (materialized_join pred)
  in
  let joined =
    Tsql.Eval.query cat
      (Printf.sprintf
         "SELECT COUNT(*), SUM(l.salary), AVG(l.salary), MIN(l.salary), \
          MAX(l.salary) FROM l JOIN r ON l.vt %s r.vt"
         pred_name)
  in
  let materialized =
    Tsql.Eval.query cat
      "SELECT COUNT(*), SUM(lsalary), AVG(lsalary), MIN(lsalary), \
       MAX(lsalary) FROM j"
  in
  check_query_rows ("five aggregates over " ^ pred_name) materialized joined

let aggregate_identity_all () =
  List.iter
    (fun p -> aggregate_identity (Join.Predicate.to_string p) p ())
    Join.Predicate.all

let grouped_identity () =
  let pred = Join.Predicate.Intersects in
  let cat = Tsql.Catalog.add (catalog ()) "j" (materialized_join pred) in
  let joined =
    Tsql.Eval.query cat
      "SELECT r.dept, COUNT(*) FROM l JOIN r ON l.vt INTERSECTS r.vt GROUP \
       BY r.dept"
  in
  let materialized =
    Tsql.Eval.query cat "SELECT rdept, COUNT(*) FROM j GROUP BY rdept"
  in
  check_query_rows "grouped count" materialized joined

(* Window + per-side partition pruning: a partitioned catalog (layouts
   whose cardinalities check out) must answer exactly like the
   unpartitioned one. *)
let time_sorted rel =
  Relation.Trel.sort_by_time rel

let layout_of rel blocks =
  (* Split the time-sorted tuple list into [blocks] contiguous runs and
     describe each by its hull — a valid shard layout for a relation
     whose physical order is the concatenation. *)
  let tuples = Relation.Trel.tuples rel in
  let n = List.length tuples in
  let per = (n + blocks - 1) / blocks in
  let rec chunks = function
    | [] -> []
    | l ->
        let rec take k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: tl -> take (k - 1) (x :: acc) tl
        in
        let block, rest = take per [] l in
        block :: chunks rest
  in
  List.map
    (fun block ->
      let hull =
        List.fold_left
          (fun acc t ->
            let ivl = Relation.Tuple.valid t in
            match acc with
            | None -> Some ivl
            | Some h -> Some (Interval.hull h ivl)
          )
          None block
      in
      (Option.get hull, List.length block))
    (chunks tuples)

let partition_pruning_identity () =
  let lsorted = time_sorted left_rel and rsorted = time_sorted right_rel in
  let plain =
    Tsql.Catalog.add
      (Tsql.Catalog.add (Tsql.Catalog.with_builtins ()) "l" lsorted)
      "r" rsorted
  in
  let parted =
    Tsql.Catalog.with_layout
      (Tsql.Catalog.with_layout plain "l" (layout_of lsorted 2))
      "r" (layout_of rsorted 2)
  in
  List.iter
    (fun q ->
      check_query_rows q (Tsql.Eval.query plain q) (Tsql.Eval.query parted q))
    [
      "SELECT COUNT(*) FROM l JOIN r ON l.vt INTERSECTS r.vt DURING [0,16]";
      "SELECT SUM(l.salary) FROM l JOIN r ON l.vt OVERLAPS r.vt DURING [30,60]";
      "SELECT COUNT(*) FROM l JOIN r ON l.vt BEFORE r.vt DURING [0,44]";
    ]

(* Strategy override changes the plan, not the answer. *)
let strategy_irrelevant () =
  let q = "SELECT COUNT(*) FROM l JOIN r ON l.vt INTERSECTS r.vt" in
  check_query_rows "sweep vs nested-loop override"
    (Tsql.Eval.query ~join_strategy:Join.Engine.Sweep (catalog ()) q)
    (Tsql.Eval.query ~join_strategy:Join.Engine.Nested_loop (catalog ()) q)

let explain_prints_strategy () =
  let check_contains what needle hay =
    if
      not
        (let nl = String.length needle and hl = String.length hay in
         let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
         go 0)
    then
      Alcotest.fail (Printf.sprintf "%s: %S not in %S" what needle hay)
  in
  (match
     Tsql.Eval.explain (catalog ())
       "SELECT COUNT(*) FROM l JOIN r ON l.vt OVERLAPS r.vt"
   with
  | Error m -> Alcotest.fail m
  | Ok text ->
      check_contains "strategy" "nested-loop-join" text;
      check_contains "rationale line" "join why:" text;
      check_contains "provenance line" "join stats:" text;
      check_contains "predicate" "OVERLAPS" text);
  match
    Tsql.Eval.explain ~join_strategy:Join.Engine.Sweep (catalog ())
      "SELECT COUNT(*) FROM l JOIN r ON l.vt OVERLAPS r.vt"
  with
  | Error m -> Alcotest.fail m
  | Ok text ->
      check_contains "override strategy" "sweep-join" text;
      check_contains "override rationale" "--join-strategy override" text

(* A sweep that blows its memory budget retries as the nested loop
   under Fallback — same rows, one recorded join degradation — and is
   a structured error under Fail. *)
let wide_catalog () =
  (* Every tuple alive at once: the sweep's active map must hold a
     whole side, so a small budget trips it.  MEETS finds no pairs, so
     the aggregation stage stays within the same budget. *)
  let n = 100 in
  let mk tag i =
    tuple [| Relation.Value.Str tag; Relation.Value.Int i |] (iv 0 (1000 + i))
  in
  let l = Relation.Trel.create lschema (List.init n (mk "a")) in
  let r = Relation.Trel.create rschema (List.init n (mk "x")) in
  Tsql.Catalog.add (Tsql.Catalog.add (Tsql.Catalog.with_builtins ()) "l" l) "r" r

(* Plan and execute a query text through Eval's two entry points. *)
let execute ?join_strategy ?on_error ?memory_budget cat q =
  Result.bind (Tsql.Parser.parse q) (fun ast ->
      Result.bind (Tsql.Eval.plan ?join_strategy ?on_error cat ast)
        (Tsql.Eval.execute ?memory_budget cat))

let budget_fallback () =
  let q = "SELECT COUNT(*) FROM l JOIN r ON l.vt MEETS r.vt" in
  (match
     execute ~join_strategy:Join.Engine.Sweep
       ~on_error:Tempagg.Engine.Fallback ~memory_budget:400 (wide_catalog ()) q
   with
  | Error m -> Alcotest.fail ("fallback path: " ^ m)
  | Ok { Tsql.Eval.result; degradations; _ } ->
      Alcotest.(check bool)
        "join degradation recorded" true
        (List.exists
           (fun (d : Tempagg.Engine.degradation) ->
             d.Tempagg.Engine.stage = "join:sweep-join")
           degradations);
      let plain =
        Tsql.Eval.query (wide_catalog ()) q |> Result.get_ok
      in
      Alcotest.(check bool) "same rows after fallback" true
        (rows plain = rows result));
  match
    execute ~join_strategy:Join.Engine.Sweep ~on_error:Tempagg.Engine.Fail
      ~memory_budget:400 (wide_catalog ()) q
  with
  | Ok _ -> Alcotest.fail "Fail policy should surface the budget error"
  | Error m ->
      Alcotest.(check bool) "budget error" true
        (String.length m > 0)

(* A sweep join that blows its budget under FALLBACK reruns as the
   nested loop: the session counts one degradation and names both
   strategies in [last_join]. *)
let session_budget_fallback () =
  let s = Tsql.Session.create (wide_catalog ()) in
  match
    Tsql.Parser.parse_statement "SELECT COUNT(*) FROM l JOIN r ON l.vt MEETS r.vt"
  with
  | Error m -> Alcotest.fail m
  | Ok stmt -> (
      match
        Tsql.Session.exec_statement ~memory_budget:400
          ~on_error:Tempagg.Engine.Fallback s stmt
      with
      | Error m -> Alcotest.fail m
      | Ok _ ->
          Alcotest.(check int) "one degradation" 1
            (Tsql.Session.last_degradations s);
          Alcotest.(check (option string))
            "fallback marked"
            (Some "sweep-join -> nested-loop-join (fallback)")
            (Tsql.Session.last_join s))

let telemetry_counts () =
  Join.Telemetry.reset ();
  (match
     Tsql.Eval.query (catalog ())
       "SELECT COUNT(*) FROM l JOIN r ON l.vt INTERSECTS r.vt"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let sweep, nested, pairs, fallbacks = Join.Telemetry.totals () in
  Alcotest.(check int) "one join ran" 1 (sweep + nested);
  Alcotest.(check int) "five intersecting pairs" 5 pairs;
  Alcotest.(check int) "no fallbacks" 0 fallbacks

(* Parser behaviour: round-trips, reversed sides, rejections. *)
let parse_ok q =
  match Tsql.Parser.parse q with
  | Ok ast -> ast
  | Error m -> Alcotest.fail (q ^ ": " ^ m)

let parser_round_trip () =
  List.iter
    (fun q ->
      let ast = parse_ok q in
      let printed = Tsql.Ast.to_string ast in
      let reparsed = parse_ok printed in
      Alcotest.(check string)
        ("round-trip " ^ q)
        printed
        (Tsql.Ast.to_string reparsed))
    [
      "SELECT COUNT(*) FROM l JOIN r ON l.vt OVERLAPS r.vt";
      "SELECT SUM(l.salary) FROM l JOIN r ON l.vt MET_BY r.vt DURING [0,30] \
       WHERE dept = 'x'";
      "SELECT dept, COUNT(*) FROM l JOIN r ON l.vt DURING r.vt GROUP BY \
       r.dept";
      "SELECT COUNT(*) FROM l JOIN r ON l.vt OVERLAPS r.vt WHERE name = \
       'O''Brien'";
      "SELECT COUNT(*) FROM l JOIN r ON l.vt OVERLAPS r.vt WHERE load < \
       1234567.5";
    ]

let parser_reversed_sides () =
  let a = parse_ok "SELECT COUNT(*) FROM l JOIN r ON l.vt BEFORE r.vt" in
  let b = parse_ok "SELECT COUNT(*) FROM l JOIN r ON r.vt AFTER l.vt" in
  Alcotest.(check string)
    "reversed ON normalizes via the converse"
    (Tsql.Ast.to_string a) (Tsql.Ast.to_string b)

let parser_rejections () =
  List.iter
    (fun q ->
      match Tsql.Parser.parse q with
      | Ok _ -> Alcotest.fail ("should not parse: " ^ q)
      | Error _ -> ())
    [
      "SELECT COUNT(*) FROM l JOIN l ON l.vt OVERLAPS l.vt";
      "SELECT COUNT(*) FROM l JOIN r ON l.vt SIDEWAYS r.vt";
      "SELECT COUNT(*) FROM l JOIN r ON l.vt OVERLAPS x.vt";
      "SELECT COUNT(*) FROM l JOIN r ON l.salary OVERLAPS r.vt";
    ];
  match
    Tsql.Eval.query (catalog ())
      "SELECT COUNT(*) FROM l JOIN missing ON l.vt OVERLAPS missing.vt"
  with
  | Ok _ -> Alcotest.fail "unknown right relation should fail analysis"
  | Error m ->
      Alcotest.(check bool) "names the right side" true
        (String.length m > 0)

let () =
  Alcotest.run "join"
    [
      ( "predicates",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            exactly_one_relation;
            intersects_is_overlap;
            inverse_is_converse;
            result_interval_sound;
          ] );
      ( "sweep",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ sweep_equals_nested_loop; sweep_equals_nested_loop_clipped ]
        @ [ Alcotest.test_case "gapless eviction" `Quick gapless_eviction ] );
      ( "tsql",
        [
          Alcotest.test_case "join-then-aggregate identity (14 predicates)"
            `Quick aggregate_identity_all;
          Alcotest.test_case "grouped identity" `Quick grouped_identity;
          Alcotest.test_case "partition pruning identity" `Quick
            partition_pruning_identity;
          Alcotest.test_case "strategy override irrelevant to rows" `Quick
            strategy_irrelevant;
          Alcotest.test_case "explain prints join strategy" `Quick
            explain_prints_strategy;
          Alcotest.test_case "budget fallback to nested loop" `Quick
            budget_fallback;
          Alcotest.test_case "session marks the join fallback" `Quick
            session_budget_fallback;
          Alcotest.test_case "telemetry counters" `Quick telemetry_counts;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round-trip" `Quick parser_round_trip;
          Alcotest.test_case "reversed sides" `Quick parser_reversed_sides;
          Alcotest.test_case "rejections" `Quick parser_rejections;
        ] );
    ]
