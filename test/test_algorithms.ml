(* Unit tests for the aggregation algorithms: the paper's running example
   (Employed / Table 1 / Figure 3), instrumentation, garbage collection,
   span grouping, the optimizer rules, and the engine dispatch. *)

open Temporal
open Tempagg

let c = Chronon.of_int
let iv = Interval.of_ints

let int_timeline =
  Alcotest.testable (Timeline.pp Format.pp_print_int) (Timeline.equal Int.equal)

let opt_int_timeline =
  Alcotest.testable
    (Timeline.pp (Format.pp_print_option Format.pp_print_int))
    (Timeline.equal (Option.equal Int.equal))

let employed_data () =
  Relation.Trel.agg_input (Relation.Fixtures.employed ()) ~column:"salary"
  |> Seq.map (fun (ivl, v) ->
         match Relation.Value.to_int v with
         | Some n -> (ivl, n)
         | None -> Alcotest.fail "salary not an int")
  |> List.of_seq

let employed_sorted () =
  List.sort (fun (a, _) (b, _) -> Interval.compare a b) (employed_data ())

let table1 = Timeline.of_list Relation.Fixtures.employed_count

let count_of data = List.to_seq data |> Seq.map (fun (ivl, _) -> (ivl, ()))

(* ------------------------------------------------------------------ *)
(* Aggregation tree (Section 5.1, Figure 3)                            *)
(* ------------------------------------------------------------------ *)

let test_tree_initial_state () =
  let t = Agg_tree.create Monoid.count in
  Alcotest.(check int) "one node" 1 (Agg_tree.node_count t);
  Alcotest.check int_timeline "single empty constant interval"
    (Timeline.singleton Interval.full 0)
    (Agg_tree.result t)

let test_tree_figure3_stages () =
  (* Figure 3: inserting Richard [18,oo], Karen [8,20], Nathan [7,12],
     Nathan [18,21] into the initial tree. *)
  let t = Agg_tree.create Monoid.count in
  (* 3.b: [18,oo] has one unique timestamp -> one split, 3 nodes. *)
  Agg_tree.insert t (Interval.from (c 18)) ();
  Alcotest.(check int) "3.b nodes" 3 (Agg_tree.node_count t);
  Alcotest.check int_timeline "3.b"
    (Timeline.of_list [ (iv 0 17, 0); (Interval.from (c 18), 1) ])
    (Agg_tree.result t);
  (* 3.c: [8,20] has two unique timestamps -> two splits, 7 nodes. *)
  Agg_tree.insert t (iv 8 20) ();
  Alcotest.(check int) "3.c nodes" 7 (Agg_tree.node_count t);
  Alcotest.check int_timeline "3.c"
    (Timeline.of_list
       [ (iv 0 7, 0); (iv 8 17, 1); (iv 18 20, 2); (Interval.from (c 21), 1) ])
    (Agg_tree.result t);
  (* 3.d: [7,12] and [18,21] complete the Employed relation. *)
  Agg_tree.insert t (iv 7 12) ();
  Agg_tree.insert t (iv 18 21) ();
  Alcotest.(check int) "3.d nodes" 13 (Agg_tree.node_count t);
  Alcotest.check int_timeline "Table 1" table1 (Agg_tree.result t)

let test_tree_employed_count () =
  Alcotest.check int_timeline "count"
    table1
    (Agg_tree.eval Monoid.count (count_of (employed_data ())))

let test_tree_no_split_on_existing_timestamps () =
  let t = Agg_tree.create Monoid.count in
  Agg_tree.insert t (iv 8 20) ();
  let nodes = Agg_tree.node_count t in
  Agg_tree.insert t (iv 8 20) ();
  Alcotest.(check int) "no new nodes" nodes (Agg_tree.node_count t)

let test_tree_internal_node_update () =
  (* Inserting an interval that fully covers an internal node updates the
     node without splitting leaves below it (the paper's [5,50] example):
     node count grows only by the splits for 5 and 50 themselves. *)
  let t = Agg_tree.create Monoid.count in
  List.iter
    (fun (ivl, v) -> Agg_tree.insert t ivl v)
    (List.map (fun (ivl, _) -> (ivl, ())) (employed_data ()));
  let nodes = Agg_tree.node_count t in
  Agg_tree.insert t (iv 5 50) ();
  Alcotest.(check int) "two splits only" (nodes + 4) (Agg_tree.node_count t);
  Alcotest.(check (option int)) "updated region" (Some 3)
    (Timeline.value_at (Agg_tree.result t) (c 10))

let test_tree_instrument_counts_nodes () =
  let inst = Instrument.create () in
  let t = Agg_tree.create ~instrument:inst Monoid.count in
  Agg_tree.insert t (iv 8 20) ();
  Agg_tree.insert t (iv 5 50) ();
  Alcotest.(check int) "allocated = size" (Agg_tree.node_count t)
    (Instrument.allocated inst);
  Alcotest.(check int) "nothing freed" (Instrument.allocated inst)
    (Instrument.live inst);
  Alcotest.(check int) "16-byte nodes"
    (16 * Instrument.peak_live inst)
    (Instrument.peak_bytes inst)

let test_tree_restricted_domain () =
  let t = Agg_tree.create ~origin:(c 10) ~horizon:(c 99) Monoid.count in
  Agg_tree.insert t (iv 20 30) ();
  Alcotest.check int_timeline "clipped domain"
    (Timeline.of_list [ (iv 10 19, 0); (iv 20 30, 1); (iv 31 99, 0) ])
    (Agg_tree.result t)

let test_tree_rejects_out_of_domain () =
  let t = Agg_tree.create ~origin:(c 10) ~horizon:(c 99) Monoid.count in
  Alcotest.check_raises "before origin"
    (Invalid_argument "Agg_tree.insert: [5,20] outside [10,99]") (fun () ->
      Agg_tree.insert t (iv 5 20) ());
  Alcotest.check_raises "after horizon"
    (Invalid_argument "Agg_tree.insert: [20,100] outside [10,99]") (fun () ->
      Agg_tree.insert t (iv 20 100) ())

let test_tree_rejects_bad_domain () =
  Alcotest.check_raises "origin after horizon"
    (Invalid_argument "Agg_tree.create: origin after horizon") (fun () ->
      ignore (Agg_tree.create ~origin:(c 5) ~horizon:(c 1) Monoid.count))

let test_tree_sorted_input_degenerates () =
  (* Time-sorted input produces a linear right spine: depth grows with n
     (the paper's O(n^2) case). *)
  let n = 64 in
  let data =
    List.init n (fun i -> (iv (10 * i) ((10 * i) + 5), ()))
  in
  let t = Agg_tree.create Monoid.count in
  List.iter (fun (ivl, v) -> Agg_tree.insert t ivl v) data;
  Alcotest.(check bool) "deep spine" true (Agg_tree.depth t > n)

let test_tree_render_mentions_spans () =
  let t = Agg_tree.create Monoid.count in
  Agg_tree.insert t (Interval.from (c 18)) ();
  let rendered = Agg_tree.render string_of_int t in
  Alcotest.(check bool) "root span" true
    (String.length rendered > 0
    && String.split_on_char '\n' rendered
       |> List.exists (fun l -> l = "[0,oo] 0"))

(* Aggregates other than count over Employed. *)

let test_tree_max_salary () =
  let expected =
    Timeline.of_list
      [
        (iv 0 6, None); (iv 7 7, Some 35_000); (iv 8 12, Some 45_000);
        (iv 13 17, Some 45_000); (iv 18 20, Some 45_000);
        (iv 21 21, Some 40_000); (Interval.from (c 22), Some 40_000);
      ]
  in
  Alcotest.check opt_int_timeline "max"
    expected
    (Agg_tree.eval Monoid.max_int (List.to_seq (employed_data ())))

let test_tree_min_salary () =
  let expected =
    Timeline.of_list
      [
        (iv 0 6, None); (iv 7 7, Some 35_000); (iv 8 12, Some 35_000);
        (iv 13 17, Some 45_000); (iv 18 20, Some 37_000);
        (iv 21 21, Some 37_000); (Interval.from (c 22), Some 40_000);
      ]
  in
  Alcotest.check opt_int_timeline "min"
    expected
    (Agg_tree.eval Monoid.min_int (List.to_seq (employed_data ())))

let test_tree_sum_salary () =
  let tl = Agg_tree.eval Monoid.sum_int (List.to_seq (employed_data ())) in
  Alcotest.(check (option int)) "peak period" (Some 122_000)
    (Timeline.value_at tl (c 19));
  Alcotest.(check (option int)) "empty period" (Some 0)
    (Timeline.value_at tl (c 3))

let test_tree_avg_salary () =
  let tl = Agg_tree.eval Monoid.avg_int (List.to_seq (employed_data ())) in
  match Timeline.value_at tl (c 19) with
  | Some (Some avg) ->
      Alcotest.(check (float 1e-6)) "avg [18,20]" (122_000. /. 3.) avg
  | _ -> Alcotest.fail "expected an average over [18,20]"

(* ------------------------------------------------------------------ *)
(* Linked list (Section 4.2)                                           *)
(* ------------------------------------------------------------------ *)

let test_list_employed_count () =
  Alcotest.check int_timeline "count" table1
    (Linked_list.eval Monoid.count (count_of (employed_data ())))

let test_list_initial_state () =
  let t = Linked_list.create Monoid.count in
  Alcotest.(check int) "one cell" 1 (Linked_list.cell_count t);
  Alcotest.check int_timeline "empty" (Timeline.singleton Interval.full 0)
    (Linked_list.result t)

let test_list_cell_growth () =
  let t = Linked_list.create Monoid.count in
  Linked_list.insert t (iv 10 20) ();
  (* Two unique timestamps -> two splits -> three cells. *)
  Alcotest.(check int) "3 cells" 3 (Linked_list.cell_count t);
  Linked_list.insert t (iv 10 20) ();
  Alcotest.(check int) "no growth on duplicate" 3 (Linked_list.cell_count t);
  Linked_list.insert t (iv 15 25) ();
  Alcotest.(check int) "5 cells" 5 (Linked_list.cell_count t)

let test_list_one_cell_per_constant_interval () =
  let t = Linked_list.create Monoid.count in
  List.iter
    (fun (ivl, _) -> Linked_list.insert t ivl ())
    (employed_data ());
  Alcotest.(check int) "7 constant intervals -> 7 cells" 7
    (Linked_list.cell_count t);
  Alcotest.(check int) "instrument agrees" 7
    (Instrument.live (Linked_list.instrument t))

let test_list_rejects_out_of_domain () =
  let t = Linked_list.create ~origin:(c 10) ~horizon:(c 99) Monoid.count in
  Alcotest.check_raises "outside"
    (Invalid_argument "Linked_list.insert: [0,5] outside [10,99]") (fun () ->
      Linked_list.insert t (iv 0 5) ())

let test_list_full_walk_same_result () =
  let data = employed_data () in
  Alcotest.check int_timeline "full walk identical" table1
    (Linked_list.eval ~full_walk:true Monoid.count (count_of data));
  let spec = Workload.Spec.make ~n:300 ~lifespan:10_000 ~seed:17 () in
  let arr = Workload.Generate.random_intervals spec in
  let seq () = Array.to_seq (Array.map (fun (ivl, _) -> (ivl, ())) arr) in
  Alcotest.check int_timeline "random data identical"
    (Linked_list.eval Monoid.count (seq ()))
    (Linked_list.eval ~full_walk:true Monoid.count (seq ()))

let test_list_interval_at_horizon_edge () =
  let t = Linked_list.create ~origin:(c 0) ~horizon:(c 9) Monoid.count in
  Linked_list.insert t (iv 0 9) ();
  Linked_list.insert t (iv 9 9) ();
  Alcotest.check int_timeline "edges"
    (Timeline.of_list [ (iv 0 8, 1); (iv 9 9, 2) ])
    (Linked_list.result t)

(* ------------------------------------------------------------------ *)
(* k-ordered aggregation tree (Section 5.3)                            *)
(* ------------------------------------------------------------------ *)

let test_ktree_employed_sorted () =
  Alcotest.check int_timeline "k=1 on sorted" table1
    (Korder_tree.eval ~k:1 Monoid.count (count_of (employed_sorted ())))

let test_ktree_employed_unsorted_with_large_k () =
  (* Employed is 3-ordered, so k=3 handles it without sorting. *)
  Alcotest.check int_timeline "k=3 on raw order" table1
    (Korder_tree.eval ~k:3 Monoid.count (count_of (employed_data ())))

let test_ktree_order_violation () =
  let t = Korder_tree.create ~k:0 Monoid.count in
  Korder_tree.insert t (iv 100 200) ();
  Korder_tree.insert t (iv 300 400) ();
  (* Window size 1: after the second insert the frontier has passed 300;
     a tuple starting at 5 violates 0-orderedness. *)
  Alcotest.(check bool) "raises Order_violation" true
    (match Korder_tree.insert t (iv 5 6) () with
    | () -> false
    | exception Korder_tree.Order_violation { start; frontier; _ } ->
        Chronon.equal start (c 5) && Chronon.( > ) frontier (c 5))

let test_ktree_gc_reclaims_memory () =
  let n = 400 in
  let data =
    List.init n (fun i -> (iv (100 * i) ((100 * i) + 50), ()))
  in
  let t = Korder_tree.create ~k:1 Monoid.count in
  List.iter (fun (ivl, v) -> Korder_tree.insert t ivl v) data;
  let inst = Korder_tree.instrument t in
  Alcotest.(check bool) "peak far below total" true
    (Instrument.peak_live inst * 4 < Instrument.allocated inst);
  Alcotest.(check bool) "live tree is small" true (Korder_tree.live_nodes t < 32);
  let tl = Korder_tree.finish t in
  Alcotest.(check int) "all nodes freed" 0 (Instrument.live inst);
  Alcotest.check int_timeline "same result as plain tree"
    (Agg_tree.eval Monoid.count (List.to_seq data))
    tl

let test_ktree_no_gc_when_k_large () =
  let data = List.init 10 (fun i -> (iv (10 * i) ((10 * i) + 5), ())) in
  let t = Korder_tree.create ~k:100 Monoid.count in
  List.iter (fun (ivl, v) -> Korder_tree.insert t ivl v) data;
  let inst = Korder_tree.instrument t in
  Alcotest.(check int) "nothing collected" (Instrument.allocated inst)
    (Instrument.live inst)

let test_ktree_on_emit_streams_in_order () =
  let emitted = ref [] in
  let t =
    Korder_tree.create ~k:1
      ~on_emit:(fun ivl v -> emitted := (ivl, v) :: !emitted)
      Monoid.count
  in
  let data = List.init 50 (fun i -> (iv (100 * i) ((100 * i) + 20), ())) in
  List.iter (fun (ivl, v) -> Korder_tree.insert t ivl v) data;
  Alcotest.(check bool) "streamed before finish" true
    (List.length !emitted > 10);
  let tl = Korder_tree.finish t in
  (* The streamed prefix must be exactly the head of the final timeline. *)
  let streamed = List.rev !emitted in
  let final = Timeline.to_list tl in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | (ia, va) :: ra, (ib, vb) :: rb ->
        Interval.equal ia ib && va = vb && is_prefix ra rb
    | _ :: _, [] -> false
  in
  Alcotest.(check bool) "prefix of final result" true (is_prefix streamed final)

let test_ktree_insert_after_finish_rejected () =
  let t = Korder_tree.create ~k:1 Monoid.count in
  Korder_tree.insert t (iv 0 5) ();
  ignore (Korder_tree.finish t);
  Alcotest.check_raises "finished"
    (Invalid_argument "Korder_tree.insert: already finished") (fun () ->
      Korder_tree.insert t (iv 10 15) ())

let test_ktree_negative_k_rejected () =
  Alcotest.check_raises "k" (Invalid_argument "Korder_tree.create: negative k")
    (fun () -> ignore (Korder_tree.create ~k:(-1) Monoid.count))

let test_ktree_empty_input () =
  let t = Korder_tree.create ~k:1 Monoid.count in
  Alcotest.check int_timeline "empty" (Timeline.singleton Interval.full 0)
    (Korder_tree.finish t)

let test_ktree_matches_tree_on_k_ordered_input () =
  let spec = Workload.Spec.make ~n:300 ~lifespan:50_000 ~seed:7 () in
  let data = Workload.Generate.k_ordered_intervals ~k:4 ~percentage:0.1 spec in
  let expected = Agg_tree.eval Monoid.count (Array.to_seq data) in
  Alcotest.check int_timeline "k=4" expected
    (Korder_tree.eval ~k:4 Monoid.count (Array.to_seq data))

(* ------------------------------------------------------------------ *)
(* Two-scan (Section 4.1)                                              *)
(* ------------------------------------------------------------------ *)

let test_twoscan_employed_count () =
  Alcotest.check int_timeline "count" table1
    (Two_scan.eval Monoid.count (count_of (employed_data ())))

let test_twoscan_constant_intervals () =
  let cis =
    Two_scan.constant_intervals
      (List.to_seq (List.map fst (employed_data ())))
  in
  Alcotest.(check int) "seven" 7 (Array.length cis);
  Alcotest.(check (list string)) "exact intervals"
    [ "[0,6]"; "[7,7]"; "[8,12]"; "[13,17]"; "[18,20]"; "[21,21]"; "[22,oo]" ]
    (Array.to_list (Array.map Interval.to_string cis))

let test_twoscan_buckets_counted () =
  let _, stats =
    Engine.eval_with_stats Engine.Two_scan Monoid.count
      (count_of (employed_data ()))
  in
  Alcotest.(check int) "one bucket per constant interval" 7
    stats.Instrument.allocated

(* ------------------------------------------------------------------ *)
(* Balanced tree (Section 7 future work)                               *)
(* ------------------------------------------------------------------ *)

let test_balanced_employed_count () =
  Alcotest.check int_timeline "count" table1
    (Balanced_tree.eval Monoid.count (count_of (employed_data ())))

let test_balanced_stays_shallow_on_sorted_input () =
  let n = 512 in
  let data = List.init n (fun i -> (iv (10 * i) ((10 * i) + 5), ())) in
  let t = Balanced_tree.create Monoid.count in
  List.iter (fun (ivl, v) -> Balanced_tree.insert t ivl v) data;
  let nodes = Balanced_tree.node_count t in
  let avl_bound =
    int_of_float (1.4405 *. log (float_of_int (nodes + 2)) /. log 2.) + 1
  in
  Alcotest.(check bool)
    (Printf.sprintf "depth %d within AVL bound %d" (Balanced_tree.depth t)
       avl_bound)
    true
    (Balanced_tree.depth t <= avl_bound);
  Alcotest.check int_timeline "same result as plain tree"
    (Agg_tree.eval Monoid.count (List.to_seq data))
    (Balanced_tree.result t)

let test_balanced_matches_tree_on_employed_aggregates () =
  let data = employed_data () in
  Alcotest.check opt_int_timeline "max"
    (Agg_tree.eval Monoid.max_int (List.to_seq data))
    (Balanced_tree.eval Monoid.max_int (List.to_seq data))

let test_balanced_node_bytes () =
  let _, stats =
    Engine.eval_with_stats Engine.Balanced_tree Monoid.count
      (count_of (employed_data ()))
  in
  Alcotest.(check int) "20-byte nodes" 20 stats.Instrument.node_bytes

(* ------------------------------------------------------------------ *)
(* Span grouping (Sections 2 and 7)                                    *)
(* ------------------------------------------------------------------ *)

let test_span_employed_by_decade () =
  let tl =
    Span.eval ~granule:(Granule.make 10) Monoid.count
      (count_of (employed_data ()))
  in
  Alcotest.check int_timeline "decades"
    (Timeline.of_list
       [ (iv 0 9, 2); (iv 10 19, 4); (iv 20 29, 3); (Interval.from (c 30), 1) ])
    tl

let test_span_instant_granule_is_identity () =
  let data = employed_data () in
  Alcotest.check int_timeline "span(1) = instant grouping"
    (Agg_tree.eval Monoid.count (count_of data))
    (Span.eval ~granule:Granule.instant Monoid.count (count_of data))

let test_span_fewer_buckets () =
  let spec = Workload.Spec.make ~n:500 ~lifespan:100_000 ~seed:3 () in
  let data = Workload.Generate.random_intervals spec in
  let _, fine =
    Engine.eval_with_stats Engine.Aggregation_tree Monoid.count
      (Array.to_seq (Array.map (fun (ivl, _) -> (ivl, ())) data))
  in
  let _, coarse =
    Span.eval_with_stats ~granule:(Granule.make 10_000) Monoid.count
      (Array.to_seq (Array.map (fun (ivl, _) -> (ivl, ())) data))
  in
  Alcotest.(check bool) "far fewer buckets" true
    (coarse.Instrument.peak_live * 10 < fine.Instrument.peak_live)

let test_span_with_linked_list_algorithm () =
  let data = employed_data () in
  Alcotest.check int_timeline "same by any algorithm"
    (Span.eval ~granule:(Granule.make 10) Monoid.count (count_of data))
    (Span.eval ~algorithm:Engine.Linked_list ~granule:(Granule.make 10)
       Monoid.count (count_of data))

let test_span_rejects_late_anchor () =
  Alcotest.check_raises "anchor"
    (Invalid_argument "Span.eval: granule anchor after origin") (fun () ->
      ignore
        (Span.eval
           ~granule:(Granule.make ~anchor:(c 5) 10)
           Monoid.count Seq.empty))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_names_roundtrip () =
  List.iter
    (fun a ->
      match Engine.of_string (Engine.name a) with
      | Ok a' ->
          Alcotest.(check string) "roundtrip" (Engine.name a) (Engine.name a')
      | Error msg -> Alcotest.fail msg)
    (Engine.all @ [ Engine.Korder_tree { k = 400 } ])

let test_engine_rejects_unknown () =
  Alcotest.(check bool) "error" true
    (Result.is_error (Engine.of_string "btree"));
  Alcotest.(check bool) "bad k" true
    (Result.is_error (Engine.of_string "ktree(x)"))

let test_engine_all_agree_on_employed () =
  List.iter
    (fun algorithm ->
      let data =
        if algorithm = Engine.Korder_tree { k = 1 } then employed_sorted ()
        else employed_data ()
      in
      Alcotest.check int_timeline (Engine.name algorithm) table1
        (Engine.eval algorithm Monoid.count (count_of data)))
    Engine.all

let test_engine_stats_node_bytes () =
  List.iter
    (fun algorithm ->
      let _, stats =
        Engine.eval_with_stats algorithm Monoid.count
          (count_of (employed_sorted ()))
      in
      Alcotest.(check int)
        (Engine.name algorithm)
        (Engine.node_bytes algorithm)
        stats.Instrument.node_bytes)
    Engine.all

(* ------------------------------------------------------------------ *)
(* Optimizer (Section 6.3)                                             *)
(* ------------------------------------------------------------------ *)

let test_optimizer_sorted_relation () =
  let md =
    { (Optimizer.default_metadata ~cardinality:100_000) with
      Optimizer.time_ordered = true }
  in
  let choice = Optimizer.choose md in
  Alcotest.(check string) "ktree k=1" "ktree(1)"
    (Engine.name choice.Optimizer.algorithm);
  Alcotest.(check bool) "no sort" false choice.Optimizer.sort_first

let test_optimizer_retroactively_bounded () =
  let md =
    { (Optimizer.default_metadata ~cardinality:100_000) with
      Optimizer.retroactive_bound = Some 40 }
  in
  let choice = Optimizer.choose md in
  Alcotest.(check string) "ktree k=40" "ktree(40)"
    (Engine.name choice.Optimizer.algorithm);
  Alcotest.(check bool) "no sort" false choice.Optimizer.sort_first

let test_optimizer_unordered_with_memory () =
  let choice = Optimizer.choose (Optimizer.default_metadata ~cardinality:100_000) in
  Alcotest.(check string) "aggregation tree" "aggregation-tree"
    (Engine.name choice.Optimizer.algorithm)

let test_optimizer_unordered_memory_tight () =
  let md =
    { (Optimizer.default_metadata ~cardinality:100_000) with
      Optimizer.memory_budget = Some 1_000_000 }
  in
  let choice = Optimizer.choose md in
  Alcotest.(check string) "sort + ktree" "ktree(1)"
    (Engine.name choice.Optimizer.algorithm);
  Alcotest.(check bool) "sort required" true choice.Optimizer.sort_first

let test_optimizer_few_constant_intervals () =
  let md =
    { (Optimizer.default_metadata ~cardinality:1_000_000) with
      Optimizer.expected_constant_intervals = Some 365 }
  in
  let choice = Optimizer.choose md in
  Alcotest.(check string) "linked list" "linked-list"
    (Engine.name choice.Optimizer.algorithm)

let test_optimizer_tree_estimate () =
  Alcotest.(check int) "bytes" ((4 * 1000 + 1) * 16)
    (Optimizer.estimated_tree_bytes ~cardinality:1000)

(* ------------------------------------------------------------------ *)
(* Instrument                                                          *)
(* ------------------------------------------------------------------ *)

let test_instrument_counters () =
  let i = Instrument.create () in
  Instrument.alloc i;
  Instrument.alloc i;
  Instrument.alloc i;
  Instrument.free i;
  Alcotest.(check int) "allocated" 3 (Instrument.allocated i);
  Alcotest.(check int) "live" 2 (Instrument.live i);
  Alcotest.(check int) "peak" 3 (Instrument.peak_live i);
  Instrument.free_many i 2;
  Alcotest.(check int) "drained" 0 (Instrument.live i);
  Alcotest.(check int) "peak sticky" 3 (Instrument.peak_live i);
  Instrument.reset i;
  Alcotest.(check int) "reset" 0 (Instrument.allocated i)

let test_instrument_snapshot () =
  let i = Instrument.create ~node_bytes:20 () in
  Instrument.alloc i;
  let s = Instrument.snapshot i in
  Alcotest.(check int) "bytes" 20 s.Instrument.peak_bytes;
  Alcotest.(check int) "node bytes" 20 s.Instrument.node_bytes

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "algorithms"
    [
      ( "aggregation-tree",
        [
          quick "initial state" test_tree_initial_state;
          quick "Figure 3 stages" test_tree_figure3_stages;
          quick "Employed count (Table 1)" test_tree_employed_count;
          quick "no split on existing timestamps"
            test_tree_no_split_on_existing_timestamps;
          quick "internal node update" test_tree_internal_node_update;
          quick "instrument counts nodes" test_tree_instrument_counts_nodes;
          quick "restricted domain" test_tree_restricted_domain;
          quick "rejects out-of-domain" test_tree_rejects_out_of_domain;
          quick "rejects bad domain" test_tree_rejects_bad_domain;
          quick "sorted input degenerates" test_tree_sorted_input_degenerates;
          quick "render" test_tree_render_mentions_spans;
          quick "max salary" test_tree_max_salary;
          quick "min salary" test_tree_min_salary;
          quick "sum salary" test_tree_sum_salary;
          quick "avg salary" test_tree_avg_salary;
        ] );
      ( "linked-list",
        [
          quick "Employed count (Table 1)" test_list_employed_count;
          quick "initial state" test_list_initial_state;
          quick "cell growth" test_list_cell_growth;
          quick "one cell per constant interval"
            test_list_one_cell_per_constant_interval;
          quick "rejects out-of-domain" test_list_rejects_out_of_domain;
          quick "full walk gives identical results" test_list_full_walk_same_result;
          quick "horizon edges" test_list_interval_at_horizon_edge;
        ] );
      ( "korder-tree",
        [
          quick "Employed sorted, k=1" test_ktree_employed_sorted;
          quick "Employed raw order, k=3"
            test_ktree_employed_unsorted_with_large_k;
          quick "order violation detected" test_ktree_order_violation;
          quick "gc reclaims memory" test_ktree_gc_reclaims_memory;
          quick "no gc when k covers input" test_ktree_no_gc_when_k_large;
          quick "on_emit streams in order" test_ktree_on_emit_streams_in_order;
          quick "insert after finish rejected"
            test_ktree_insert_after_finish_rejected;
          quick "negative k rejected" test_ktree_negative_k_rejected;
          quick "empty input" test_ktree_empty_input;
          quick "matches tree on k-ordered input"
            test_ktree_matches_tree_on_k_ordered_input;
        ] );
      ( "two-scan",
        [
          quick "Employed count (Table 1)" test_twoscan_employed_count;
          quick "constant intervals (Figure 2)" test_twoscan_constant_intervals;
          quick "buckets counted" test_twoscan_buckets_counted;
        ] );
      ( "balanced-tree",
        [
          quick "Employed count (Table 1)" test_balanced_employed_count;
          quick "stays shallow on sorted input"
            test_balanced_stays_shallow_on_sorted_input;
          quick "matches plain tree on other aggregates"
            test_balanced_matches_tree_on_employed_aggregates;
          quick "20-byte nodes" test_balanced_node_bytes;
        ] );
      ( "span",
        [
          quick "Employed by decade" test_span_employed_by_decade;
          quick "instant granule is identity"
            test_span_instant_granule_is_identity;
          quick "fewer buckets than instant grouping" test_span_fewer_buckets;
          quick "any algorithm underneath" test_span_with_linked_list_algorithm;
          quick "rejects late anchor" test_span_rejects_late_anchor;
        ] );
      ( "engine",
        [
          quick "names roundtrip" test_engine_names_roundtrip;
          quick "rejects unknown names" test_engine_rejects_unknown;
          quick "all algorithms agree on Employed"
            test_engine_all_agree_on_employed;
          quick "stats use per-algorithm node bytes"
            test_engine_stats_node_bytes;
        ] );
      ( "optimizer",
        [
          quick "sorted relation" test_optimizer_sorted_relation;
          quick "retroactively bounded" test_optimizer_retroactively_bounded;
          quick "unordered with memory" test_optimizer_unordered_with_memory;
          quick "unordered, memory tight" test_optimizer_unordered_memory_tight;
          quick "few constant intervals" test_optimizer_few_constant_intervals;
          quick "tree size estimate" test_optimizer_tree_estimate;
        ] );
      ( "instrument",
        [
          quick "counters" test_instrument_counters;
          quick "snapshot" test_instrument_snapshot;
        ] );
    ]
