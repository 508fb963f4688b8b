(* Tests for the future-work extensions: the limited-memory paged
   aggregation tree, duplicate elimination (DISTINCT), snapshot
   aggregates, variance/stddev, and page randomization. *)

open Temporal
open Tempagg

let c = Chronon.of_int
let iv = Interval.of_ints

let int_timeline =
  Alcotest.testable (Timeline.pp Format.pp_print_int) (Timeline.equal Int.equal)

let count_seq data () = Array.to_seq (Array.map (fun (i, _) -> (i, ())) data)

(* ------------------------------------------------------------------ *)
(* Paged tree                                                          *)
(* ------------------------------------------------------------------ *)

let random_workload ?(n = 2000) ?(long = 0.3) ?(seed = 3) () =
  Workload.Generate.random_intervals
    (Workload.Spec.make ~n ~lifespan:50_000 ~long_lived_fraction:long ~seed ())

let test_paged_equals_plain_across_budgets () =
  let data = random_workload () in
  let expected = Agg_tree.eval Monoid.count (count_seq data ()) in
  List.iter
    (fun budget ->
      Alcotest.check int_timeline
        (Printf.sprintf "budget %d" budget)
        expected
        (Paged_tree.eval ~budget_nodes:budget Monoid.count (count_seq data ())))
    [ 1_000_000; 2048; 256; 32; 8 ]

let test_paged_equals_plain_on_sorted_input () =
  let data = random_workload ~n:1500 () in
  Array.sort (fun (a, _) (b, _) -> Interval.compare a b) data;
  let expected = Korder_tree.eval ~k:1 Monoid.count (count_seq data ()) in
  Alcotest.check int_timeline "sorted adversarial input" expected
    (Paged_tree.eval ~budget_nodes:128 Monoid.count (count_seq data ()))

let test_paged_equals_plain_on_reverse_sorted_input () =
  (* Reverse time order is adversarial for the evict-the-larger-child
     policy in the opposite direction from sorted input. *)
  let data = random_workload ~n:1500 () in
  Array.sort (fun (a, _) (b, _) -> Interval.compare b a) data;
  let expected = Agg_tree.eval Monoid.count (count_seq data ()) in
  Alcotest.check int_timeline "reverse-sorted input" expected
    (Paged_tree.eval ~budget_nodes:128 Monoid.count (count_seq data ()))

let test_paged_memory_bounded () =
  let data = random_workload ~n:4000 () in
  let budget = 512 in
  let _, stats =
    Paged_tree.eval_with_stats ~budget_nodes:budget Monoid.count
      (count_seq data ())
  in
  let _, unbounded =
    Engine.eval_with_stats Engine.Aggregation_tree Monoid.count
      (count_seq data ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d within ~3x budget %d"
       stats.Paged_tree.peak_live_nodes budget)
    true
    (stats.Paged_tree.peak_live_nodes <= 3 * budget);
  Alcotest.(check bool) "evictions happened" true (stats.Paged_tree.evictions > 0);
  Alcotest.(check bool) "spill happened" true (stats.Paged_tree.spilled_bytes > 0);
  Alcotest.(check bool) "far below the unbounded tree" true
    (stats.Paged_tree.peak_live_nodes * 4 < unbounded.Instrument.peak_live)

let test_paged_no_evictions_under_budget () =
  let data = random_workload ~n:200 () in
  let _, stats =
    Paged_tree.eval_with_stats ~budget_nodes:100_000 Monoid.count
      (count_seq data ())
  in
  Alcotest.(check int) "no evictions" 0 stats.Paged_tree.evictions;
  Alcotest.(check int) "no spill" 0 stats.Paged_tree.spilled_bytes

let test_paged_spill_files_removed () =
  let dir = Filename.temp_file "tempagg_spill" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let data = random_workload ~n:1000 () in
      ignore
        (Paged_tree.eval ~spill_dir:dir ~budget_nodes:64 Monoid.count
           (count_seq data ()));
      Alcotest.(check (array string)) "spill dir empty after result" [||]
        (Sys.readdir dir))

let test_paged_other_aggregates () =
  let data = random_workload ~n:800 () in
  let seq () = Array.to_seq data in
  Alcotest.(check bool) "sum" true
    (Timeline.equal Int.equal
       (Agg_tree.eval Monoid.sum_int (seq ()))
       (Paged_tree.eval ~budget_nodes:128 Monoid.sum_int (seq ())));
  Alcotest.(check bool) "max" true
    (Timeline.equal (Option.equal Int.equal)
       (Agg_tree.eval Monoid.max_int (seq ()))
       (Paged_tree.eval ~budget_nodes:128 Monoid.max_int (seq ())))

let test_paged_validation () =
  Alcotest.(check bool) "budget too small" true
    (match Paged_tree.create ~budget_nodes:4 Monoid.count with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let t = Paged_tree.create ~budget_nodes:64 Monoid.count in
  ignore (Paged_tree.result t);
  Alcotest.(check bool) "insert after result" true
    (match Paged_tree.insert t (iv 0 1) () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_paged_equals_reference =
  QCheck2.Test.make ~name:"paged tree = reference (random budgets)" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40)
           (let* s = int_bound 100 in
            let* len = int_bound 30 in
            let* v = int_range 1 50 in
            return (iv s (s + len), v)))
        (int_range 8 64))
    (fun (data, budget) ->
      let expected = Reference.eval Monoid.sum_int data in
      Timeline.equal Int.equal expected
        (Paged_tree.eval ~budget_nodes:budget Monoid.sum_int
           (List.to_seq data)))

(* ------------------------------------------------------------------ *)
(* Distinct                                                            *)
(* ------------------------------------------------------------------ *)

let test_merge_intervals () =
  let merged =
    Distinct.merge_intervals [ iv 5 9; iv 0 2; iv 8 12; iv 3 3; iv 20 25 ]
  in
  Alcotest.(check (list string)) "merged"
    [ "[0,3]"; "[5,12]"; "[20,25]" ]
    (List.map Interval.to_string merged)

let test_merge_intervals_unbounded () =
  let merged =
    Distinct.merge_intervals [ Interval.from (c 10); iv 0 4; iv 8 12 ]
  in
  Alcotest.(check (list string)) "merged" [ "[0,4]"; "[8,oo]" ]
    (List.map Interval.to_string merged)

let test_distinct_count () =
  (* Two "alice" tuples overlap during [5,8]: DISTINCT counts one. *)
  let data =
    [ (iv 0 8, "alice"); (iv 5 12, "alice"); (iv 5 6, "bob") ]
  in
  let plain = Agg_tree.eval Monoid.count (List.to_seq data) in
  let distinct =
    Distinct.eval ~compare:String.compare Monoid.count (List.to_seq data)
  in
  Alcotest.(check (option int)) "plain sees 3 at 5" (Some 3)
    (Timeline.value_at plain (c 5));
  Alcotest.(check (option int)) "distinct sees 2 at 5" (Some 2)
    (Timeline.value_at distinct (c 5));
  Alcotest.(check (option int)) "identical where no dupes" (Some 1)
    (Timeline.value_at distinct (c 10))

let test_distinct_adjacent_intervals_merge () =
  (* [0,4] and [5,9] for the same value are adjacent: still one logical
     validity period. *)
  let data = [ (iv 0 4, "x"); (iv 5 9, "x") ] in
  let prepared = Distinct.prepare ~compare:String.compare (List.to_seq data) in
  Alcotest.(check int) "one merged interval" 1 (List.length prepared)

let prop_distinct_is_pointwise_dedup =
  QCheck2.Test.make ~name:"distinct = per-instant value dedup" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 25)
        (let* s = int_bound 60 in
         let* len = int_bound 20 in
         let* v = int_range 1 5 in
         return (iv s (s + len), v)))
    (fun data ->
      let tl =
        Distinct.eval ~compare:Int.compare Monoid.count (List.to_seq data)
      in
      List.for_all
        (fun probe ->
          let p = c probe in
          let expected =
            List.sort_uniq Int.compare
              (List.filter_map
                 (fun (i, v) -> if Interval.contains i p then Some v else None)
                 data)
            |> List.length
          in
          Timeline.value_at tl p = Some expected)
        [ 0; 3; 17; 42; 60; 90 ])

let tsql_catalog =
  let schema =
    Relation.Schema.of_pairs
      [ ("name", Relation.Value.Tstring); ("salary", Relation.Value.Tint) ]
  in
  let mk name salary a b =
    Relation.Tuple.make
      [| Relation.Value.Str name; Relation.Value.Int salary |]
      (iv a b)
  in
  Tsql.Catalog.add (Tsql.Catalog.with_builtins ()) "Shifts"
    (Relation.Trel.create schema
       [ mk "alice" 10 0 8; mk "alice" 10 5 12; mk "bob" 20 5 6 ])

let test_tsql_count_distinct () =
  match
    Tsql.Eval.query tsql_catalog "SELECT COUNT(DISTINCT name) FROM Shifts"
  with
  | Error msg -> Alcotest.fail msg
  | Ok rel ->
      let at probe =
        List.find_map
          (fun t ->
            if Interval.contains (Relation.Tuple.valid t) (c probe) then
              Relation.Value.to_int (Relation.Tuple.value t 0)
            else None)
          (Relation.Trel.tuples rel)
      in
      Alcotest.(check (option int)) "2 distinct at 5" (Some 2) (at 5);
      Alcotest.(check (option int)) "1 distinct at 10" (Some 1) (at 10)

let test_tsql_distinct_star_rejected () =
  Alcotest.(check bool) "error" true
    (Result.is_error
       (Tsql.Eval.query tsql_catalog "SELECT COUNT(DISTINCT *) FROM Shifts"))

let test_tsql_distinct_roundtrip () =
  let q = "SELECT COUNT(DISTINCT name) FROM Shifts" in
  match Tsql.Parser.parse q with
  | Error msg -> Alcotest.fail msg
  | Ok ast -> Alcotest.(check string) "roundtrip" q (Tsql.Ast.to_string ast)

(* ------------------------------------------------------------------ *)
(* Snapshot aggregates (Section 3)                                     *)
(* ------------------------------------------------------------------ *)

let employed_data () =
  Relation.Trel.agg_input (Relation.Fixtures.employed ()) ~column:"salary"
  |> Seq.map (fun (i, v) ->
         (i, Option.value (Relation.Value.to_int v) ~default:0))
  |> List.of_seq

let test_snapshot_scalar () =
  let result, counter =
    Snapshot.scalar Monoid.avg_int (List.to_seq [ 1; 2; 3; 6 ])
  in
  Alcotest.(check (option (float 1e-9))) "avg" (Some 3.) result;
  Alcotest.(check int) "counter" 4 counter

let test_snapshot_scalar_empty () =
  let result, counter = Snapshot.scalar Monoid.min_int Seq.empty in
  Alcotest.(check (option int)) "empty min" None result;
  Alcotest.(check int) "counter" 0 counter

let test_snapshot_grouped () =
  let words = [ "a"; "bb"; "cc"; "d"; "eee" ] in
  let groups =
    Snapshot.grouped ~compare:Int.compare ~key:String.length Monoid.count
      (List.to_seq words)
  in
  Alcotest.(check (list (triple int int int))) "by length"
    [ (1, 2, 2); (2, 2, 2); (3, 1, 1) ]
    groups

let test_snapshot_timeslice () =
  let data = employed_data () in
  Alcotest.(check (list int)) "snapshot at 19"
    [ 40_000; 45_000; 37_000 ]
    (List.of_seq (Snapshot.timeslice ~at:(c 19) (List.to_seq data)))

let test_snapshot_at_matches_timeline () =
  let data = employed_data () in
  let tl = Agg_tree.eval Monoid.count (count_seq (Array.of_list data) ()) in
  List.iter
    (fun probe ->
      Alcotest.(check (option int))
        (Printf.sprintf "instant %d" probe)
        (Timeline.value_at tl (c probe))
        (Some
           (Snapshot.at ~at:(c probe)
              (Monoid.contramap (fun (_ : int) -> ()) Monoid.count)
              (List.to_seq data))))
    [ 0; 7; 10; 15; 19; 21; 100 ]

let prop_snapshot_equals_timeline_sample =
  QCheck2.Test.make ~name:"snapshot at t = timeline sampled at t" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 30)
           (let* s = int_bound 80 in
            let* len = int_bound 25 in
            let* v = int_range 1 100 in
            return (iv s (s + len), v)))
        (int_bound 120))
    (fun (data, probe) ->
      let tl = Agg_tree.eval Monoid.sum_int (List.to_seq data) in
      Timeline.value_at tl (c probe)
      = Some (Snapshot.at ~at:(c probe) Monoid.sum_int (List.to_seq data)))

(* ------------------------------------------------------------------ *)
(* Variance / stddev                                                   *)
(* ------------------------------------------------------------------ *)

let test_variance_values () =
  let fold m vs =
    m.Monoid.output
      (List.fold_left
         (fun acc v -> m.Monoid.combine acc (m.Monoid.inject v))
         m.Monoid.empty vs)
  in
  (match fold Monoid.variance [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] with
  | Some v -> Alcotest.(check (float 1e-9)) "variance" 4. v
  | None -> Alcotest.fail "expected variance");
  (match fold Monoid.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] with
  | Some s -> Alcotest.(check (float 1e-9)) "stddev" 2. s
  | None -> Alcotest.fail "expected stddev");
  Alcotest.(check bool) "empty" true (fold Monoid.variance [] = None);
  (match fold Monoid.variance [ 5. ] with
  | Some v -> Alcotest.(check (float 1e-9)) "singleton" 0. v
  | None -> Alcotest.fail "expected 0 variance")

let test_variance_over_timeline () =
  let data = [ (iv 0 9, 2.); (iv 5 9, 4.); (iv 5 9, 6.) ] in
  let tl = Agg_tree.eval Monoid.variance (List.to_seq data) in
  (match Timeline.value_at tl (c 7) with
  | Some (Some v) ->
      (* values {2,4,6}: mean 4, variance 8/3 *)
      Alcotest.(check (float 1e-9)) "variance at 7" (8. /. 3.) v
  | _ -> Alcotest.fail "expected variance");
  match Timeline.value_at tl (c 2) with
  | Some (Some v) -> Alcotest.(check (float 1e-9)) "single value" 0. v
  | _ -> Alcotest.fail "expected variance"

(* ------------------------------------------------------------------ *)
(* Page randomization (Section 7)                                      *)
(* ------------------------------------------------------------------ *)

let mk_rand seed =
  let prng = Workload.Prng.create ~seed in
  Workload.Prng.int_bounded prng

let test_page_randomized_is_permutation () =
  let a = Array.init 1000 Fun.id in
  let out =
    Ordering.Perturb.page_randomized ~rand:(mk_rand 1) ~page_tuples:64
      ~buffer_pages:4 a
  in
  let sorted = Array.copy out in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" a sorted

let test_page_randomized_k_bound () =
  let a = Array.init 5000 Fun.id in
  let group = 64 * 4 in
  let out =
    Ordering.Perturb.page_randomized ~rand:(mk_rand 2) ~page_tuples:64
      ~buffer_pages:4 a
  in
  Alcotest.(check bool) "k below group size" true
    (Ordering.Korder.k_of ~compare:Int.compare out < group);
  Alcotest.(check bool) "actually disordered" true
    (Ordering.Korder.k_of ~compare:Int.compare out > 0)

let test_page_randomized_debalances_tree () =
  (* The Section 7 claim: page randomization avoids linearizing the tree
     on sorted input. *)
  let spec = Workload.Spec.make ~n:2000 ~lifespan:100_000 ~seed:9 () in
  let sorted = Workload.Generate.sorted_intervals spec in
  let randomized =
    Ordering.Perturb.page_randomized ~rand:(mk_rand 3) ~page_tuples:64
      ~buffer_pages:8 sorted
  in
  let depth_of data =
    let t = Agg_tree.create Monoid.count in
    Array.iter (fun (i, _) -> Agg_tree.insert t i ()) data;
    Agg_tree.depth t
  in
  let sorted_depth = depth_of sorted and randomized_depth = depth_of randomized in
  Alcotest.(check bool)
    (Printf.sprintf "depth %d << %d" randomized_depth sorted_depth)
    true
    (randomized_depth * 5 < sorted_depth);
  (* And the result is unchanged. *)
  Alcotest.check int_timeline "same result"
    (Agg_tree.eval Monoid.count (count_seq sorted ()))
    (Agg_tree.eval Monoid.count (count_seq randomized ()))

let test_page_randomized_validation () =
  Alcotest.(check bool) "page_tuples" true
    (match
       Ordering.Perturb.page_randomized ~rand:(mk_rand 1) ~page_tuples:0
         ~buffer_pages:1 [| 1 |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "extensions"
    [
      ( "paged-tree",
        [
          quick "equals plain tree across budgets"
            test_paged_equals_plain_across_budgets;
          quick "sorted adversarial input" test_paged_equals_plain_on_sorted_input;
          quick "reverse-sorted adversarial input"
            test_paged_equals_plain_on_reverse_sorted_input;
          quick "memory bounded" test_paged_memory_bounded;
          quick "no evictions under budget" test_paged_no_evictions_under_budget;
          quick "spill files removed" test_paged_spill_files_removed;
          quick "other aggregates" test_paged_other_aggregates;
          quick "validation" test_paged_validation;
          QCheck_alcotest.to_alcotest ~long:false prop_paged_equals_reference;
        ] );
      ( "distinct",
        [
          quick "merge intervals" test_merge_intervals;
          quick "merge unbounded" test_merge_intervals_unbounded;
          quick "distinct count" test_distinct_count;
          quick "adjacent intervals merge" test_distinct_adjacent_intervals_merge;
          QCheck_alcotest.to_alcotest ~long:false prop_distinct_is_pointwise_dedup;
          quick "TSQL COUNT(DISTINCT col)" test_tsql_count_distinct;
          quick "TSQL rejects DISTINCT *" test_tsql_distinct_star_rejected;
          quick "TSQL distinct roundtrip" test_tsql_distinct_roundtrip;
        ] );
      ( "snapshot",
        [
          quick "scalar with counter" test_snapshot_scalar;
          quick "scalar over empty input" test_snapshot_scalar_empty;
          quick "grouped (temporary relation)" test_snapshot_grouped;
          quick "timeslice" test_snapshot_timeslice;
          quick "at matches timeline" test_snapshot_at_matches_timeline;
          QCheck_alcotest.to_alcotest ~long:false
            prop_snapshot_equals_timeline_sample;
        ] );
      ( "variance",
        [
          quick "values" test_variance_values;
          quick "over a timeline" test_variance_over_timeline;
        ] );
      ( "page-randomization",
        [
          quick "permutation" test_page_randomized_is_permutation;
          quick "k bounded by group" test_page_randomized_k_bound;
          quick "avoids tree linearization" test_page_randomized_debalances_tree;
          quick "validation" test_page_randomized_validation;
        ] );
    ]
