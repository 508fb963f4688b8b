(* End-to-end tests of the resilience layer: Guard budgets and
   deadlines, Engine.eval_robust fallback chains, parallel shard
   recovery, TSQL ON ERROR policies, and storage fault injection with
   checksum detection (satellite of the paper's Section 5.3 guidance:
   the recommended k-ordered tree is only safe when k is guessed
   right, so mis-guesses must degrade the plan, not the answer). *)

open Temporal
open Relation
open Tempagg

let iv = Interval.of_ints

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let render_degradations ds =
  String.concat "; " (List.map Engine.degradation_to_string ds)

let check_mentions what ds needle =
  let rendered = render_degradations ds in
  if not (contains rendered needle) then
    Alcotest.fail
      (Printf.sprintf "%s: degradations %S lack %S" what rendered needle)

(* ------------------------------------------------------------------ *)
(* Guard                                                               *)
(* ------------------------------------------------------------------ *)

let test_guard_validation () =
  let rejects f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative budget" true
    (rejects (fun () -> Guard.create ~memory_budget:(-1) ()));
  Alcotest.(check bool) "negative deadline" true
    (rejects (fun () -> Guard.create ~deadline_ms:(-0.5) ()))

let test_guard_unlimited () =
  let g = Guard.create () in
  Alcotest.(check bool) "unlimited" true (Guard.unlimited g);
  for _ = 1 to 10_000 do
    Guard.check g
  done;
  Alcotest.(check bool) "no hook" true (Guard.hook g = None);
  Alcotest.(check bool) "budget makes it limited" false
    (Guard.unlimited (Guard.create ~memory_budget:1 ()))

let test_guard_deadline_trips () =
  let g = Guard.create ~deadline_ms:1. () in
  Unix.sleepf 0.005;
  Alcotest.(check bool) "raises" true
    (match Guard.check g with
    | () -> false
    | exception Guard.Deadline_exceeded { deadline_ms; elapsed_ms } ->
        deadline_ms = 1. && elapsed_ms >= 1.)

let test_guard_budget_trips () =
  let g = Guard.create ~memory_budget:64 () in
  let inst = Instrument.create () in
  (* 16 bytes/node *)
  Guard.attach g inst;
  for _ = 1 to 4 do
    Instrument.alloc inst
  done;
  (* 64 bytes live: exactly at the budget, still fine. *)
  Alcotest.(check bool) "fifth alloc trips" true
    (match Instrument.alloc inst with
    | () -> false
    | exception Guard.Budget_exceeded { budget_bytes; used_bytes } ->
        budget_bytes = 64 && used_bytes = 80)

let test_guard_wrap_seq () =
  let g = Guard.create ~deadline_ms:1. () in
  let pulled = ref 0 in
  let seq =
    Guard.wrap_seq g
      (Seq.map
         (fun i ->
           incr pulled;
           i)
         (Seq.ints 0))
  in
  Unix.sleepf 0.005;
  Alcotest.(check bool) "pull raises" true
    (match Seq.iter ignore seq with
    | () -> false
    | exception Guard.Deadline_exceeded _ -> true);
  (* The guard checks as each element is handed out, so the consumer
     never observes one: at most the first was pulled underneath. *)
  Alcotest.(check bool) "no element reaches the consumer" true (!pulled <= 1);
  (* No deadline: wrap_seq is the identity. *)
  let unlimited = Guard.create ~memory_budget:10 () in
  let s = Seq.ints 0 in
  Alcotest.(check bool) "identity when no deadline" true
    (Guard.wrap_seq unlimited s == s)

let test_guard_describe () =
  let some = function Some _ -> true | None -> false in
  Alcotest.(check bool) "budget described" true
    (some
       (Guard.describe
          (Guard.Budget_exceeded { budget_bytes = 1; used_bytes = 2 })));
  Alcotest.(check bool) "deadline described" true
    (some
       (Guard.describe
          (Guard.Deadline_exceeded { deadline_ms = 1.; elapsed_ms = 2. })));
  Alcotest.(check bool) "other exn ignored" true
    (Guard.describe Not_found = None)

(* The split cap is observable through [Budget_exceeded.budget_bytes]:
   trip a shard guard and read back the cap it was enforcing. *)
let shard_cap ~budget ~ways =
  let g = Guard.split (Guard.create ~memory_budget:budget ()) ways in
  let inst = Instrument.create ~node_bytes:1 () in
  Guard.attach g inst;
  let rec alloc_until_trip () =
    match Instrument.alloc inst with
    | () -> alloc_until_trip ()
    | exception Guard.Budget_exceeded { budget_bytes; _ } -> budget_bytes
  in
  alloc_until_trip ()

let test_guard_split_one_way_preserves () =
  Alcotest.(check int) "ways=1 keeps the budget" 10 (shard_cap ~budget:10 ~ways:1)

let test_guard_split_zero_budget () =
  (* A zero budget splits to zero: the very first allocation trips. *)
  Alcotest.(check int) "zero stays zero" 0 (shard_cap ~budget:0 ~ways:4);
  (* Splitting finer than the budget rounds down to zero too. *)
  Alcotest.(check int) "7/8 rounds to zero" 0 (shard_cap ~budget:7 ~ways:8)

let test_guard_split_rounds_down () =
  (* 10 bytes over 3 shards: 3 each, and 3 shards * 3 bytes = 9 <= 10 —
     concurrent shards can never overrun the parent budget in sum. *)
  let ways = 3 and budget = 10 in
  let caps = List.init ways (fun _ -> shard_cap ~budget ~ways) in
  List.iter (fun cap -> Alcotest.(check int) "floor(10/3)" 3 cap) caps;
  Alcotest.(check bool) "shards sum within parent" true
    (List.fold_left ( + ) 0 caps <= budget)

let test_guard_split_shares_deadline_clock () =
  let parent = Guard.create ~deadline_ms:1. () in
  Unix.sleepf 0.005;
  (* The shard's clock starts at the parent's start, not at the split:
     elapsed time before the split already counts. *)
  let shard = Guard.split parent 2 in
  Alcotest.(check bool) "shard inherits elapsed time" true
    (match Guard.check shard with
    | () -> false
    | exception Guard.Deadline_exceeded { elapsed_ms; _ } -> elapsed_ms >= 1.)

(* ------------------------------------------------------------------ *)
(* Engine.of_string: round trips and validation                        *)
(* ------------------------------------------------------------------ *)

let test_algorithm_name_roundtrip () =
  List.iter
    (fun a ->
      match Engine.of_string (Engine.name a) with
      | Ok a' ->
          Alcotest.(check string)
            (Engine.name a ^ " roundtrips")
            (Engine.name a) (Engine.name a')
      | Error msg -> Alcotest.fail (Engine.name a ^ " -> " ^ msg))
    Engine.all;
  (* Deeper shapes than the representatives in [all]. *)
  List.iter
    (fun a ->
      match Engine.of_string (Engine.name a) with
      | Ok a' -> Alcotest.(check bool) "structural" true (a = a')
      | Error msg -> Alcotest.fail (Engine.name a ^ " -> " ^ msg))
    [
      Engine.Korder_tree { k = 4096 };
      Engine.Parallel { domains = 7; inner = Engine.Korder_tree { k = 3 } };
      Engine.Parallel
        {
          domains = 2;
          inner = Engine.Parallel { domains = 2; inner = Engine.Two_scan };
        };
    ]

let test_algorithm_of_string_rejects () =
  let expect_error s fragment =
    match Engine.of_string s with
    | Ok _ -> Alcotest.fail ("accepted " ^ s)
    | Error msg ->
        if not (contains msg fragment) then
          Alcotest.fail (Printf.sprintf "error %S lacks %S" msg fragment)
  in
  expect_error "ktree(-1)" "non-negative";
  expect_error "parallel(0)" "at least 1";
  expect_error "parallel(0,sweep)" "at least 1";
  expect_error "parallel(-3,sweep)" "at least 1";
  expect_error "frob" "unknown algorithm"

(* ------------------------------------------------------------------ *)
(* eval_robust: fallback chains                                        *)
(* ------------------------------------------------------------------ *)

(* Time-ordered except the straggler at the end.  The k-ordered tree's
   frontier only advances once 2k+2 tuples have passed (the paper's
   finalization window), so the violator must arrive after that: under
   k=1 the frontier has reached 20 when (5,15) shows up — a violation —
   while under k=2 the window never fills and the run succeeds.  One
   doubling recovers; the aggregation tree is never needed. *)
let unsorted_data =
  [
    (iv 10 18, 5); (iv 20 28, 2); (iv 30 34, 1);
    (iv 40 48, 7); (iv 50 60, 3); (iv 5 15, 9);
  ]

let useq () = List.to_seq unsorted_data

let check_timeline what expected actual =
  Alcotest.(check bool) what true (Timeline.equal Int.equal expected actual)

let test_ktree_fallback_matches_reference () =
  let expected = Engine.eval Engine.Aggregation_tree Monoid.count (useq ()) in
  match
    Engine.eval_robust (Engine.Korder_tree { k = 1 }) Monoid.count (useq ())
  with
  | Error e -> Alcotest.fail (Engine.error_to_string e)
  | Ok (tl, ds) ->
      check_timeline "same timeline as aggregation tree" expected tl;
      Alcotest.(check bool) "degradation reported" true (ds <> []);
      check_mentions "ktree retry" ds "ktree"

let test_ktree_fail_policy_is_terminal () =
  match
    Engine.eval_robust ~on_error:Engine.Fail (Engine.Korder_tree { k = 1 })
      Monoid.count (useq ())
  with
  | Ok _ -> Alcotest.fail "expected Not_k_ordered"
  | Error (Engine.Not_k_ordered _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Engine.error_to_string e)

(* A displacement larger than the retry cap concedes all the way to the
   aggregation tree.  The violation must fire even at the capped
   k = 4096, whose finalization window holds 2k+2 = 8194 tuples — with
   fewer, the frontier never advances and any k "succeeds" — so the
   straggler needs more than that many predecessors. *)
let test_ktree_fallback_concedes_to_agg_tree () =
  let n = 9000 in
  let data =
    List.init n (fun i -> (iv i (i + 3), 1)) @ [ (iv 0 2, 1) ]
  in
  let seq () = List.to_seq data in
  let expected = Engine.eval Engine.Sweep Monoid.count (seq ()) in
  match
    Engine.eval_robust (Engine.Korder_tree { k = 1 }) Monoid.count (seq ())
  with
  | Error e -> Alcotest.fail (Engine.error_to_string e)
  | Ok (tl, ds) ->
      check_timeline "correct despite hopeless k" expected tl;
      check_mentions "terminal fallback" ds "aggregation-tree"

let test_skip_policy_drops_and_counts () =
  (* The straggler is the only tuple tripping ktree(1): skip drops
     exactly it and aggregates the rest. *)
  let kept = List.filteri (fun i _ -> i < 5) unsorted_data in
  let expected =
    Engine.eval Engine.Aggregation_tree Monoid.count (List.to_seq kept)
  in
  match
    Engine.eval_robust ~on_error:Engine.Skip (Engine.Korder_tree { k = 1 })
      Monoid.count (useq ())
  with
  | Error e -> Alcotest.fail (Engine.error_to_string e)
  | Ok (tl, ds) ->
      check_timeline "aggregates the kept tuples" expected tl;
      check_mentions "skip is never silent" ds "skipped 1 misordered"

let test_budget_fallback_to_sweep () =
  (* A staircase of mutually overlapping intervals: nothing finalizes,
     so the balanced tree's 20-byte nodes all stay live while the sweep
     pays only its flat 16-byte event slots.  Measure both, then pick
     the midpoint so the balanced tree must blow the budget and the
     sweep must fit under it. *)
  let n = 2000 in
  let data = List.init n (fun i -> (iv i (i + n), 1)) in
  let seq () = List.to_seq data in
  let _, bal = Engine.eval_with_stats Engine.Balanced_tree Monoid.count (seq ()) in
  let _, sw = Engine.eval_with_stats Engine.Sweep Monoid.count (seq ()) in
  let budget = (bal.Instrument.peak_bytes + sw.Instrument.peak_bytes) / 2 in
  Alcotest.(check bool) "sweep is cheaper here" true
    (sw.Instrument.peak_bytes < budget
    && budget < bal.Instrument.peak_bytes);
  let expected = Engine.eval Engine.Sweep Monoid.count (seq ()) in
  match
    Engine.eval_robust ~memory_budget:budget Engine.Balanced_tree Monoid.count
      (seq ())
  with
  | Error e -> Alcotest.fail (Engine.error_to_string e)
  | Ok (tl, ds) ->
      check_timeline "sweep result" expected tl;
      check_mentions "budget fallback" ds "sweep"

let test_budget_fail_policy_is_terminal () =
  let n = 2000 in
  let data = List.init n (fun i -> (iv (2 * i) ((2 * i) + 1), 1)) in
  match
    Engine.eval_robust ~on_error:Engine.Fail ~memory_budget:256
      Engine.Balanced_tree Monoid.count (List.to_seq data)
  with
  | Ok _ -> Alcotest.fail "expected Budget_exhausted"
  | Error (Engine.Budget_exhausted { budget_bytes; used_bytes }) ->
      Alcotest.(check int) "budget echoed" 256 budget_bytes;
      Alcotest.(check bool) "overshoot reported" true (used_bytes > 256)
  | Error e -> Alcotest.fail ("wrong error: " ^ Engine.error_to_string e)

let test_deadline_always_terminal () =
  (* Enough work that the cooperative checks fire well past an
     already-expired deadline, even under the Fallback policy. *)
  let n = 100_000 in
  let data = List.init n (fun i -> (iv i (i + 3), 1)) in
  match
    Engine.eval_robust ~deadline_ms:0.01 Engine.Sweep Monoid.count
      (List.to_seq data)
  with
  | Ok _ -> Alcotest.fail "expected Deadline_exhausted"
  | Error (Engine.Deadline_exhausted { deadline_ms; elapsed_ms }) ->
      Alcotest.(check bool) "fields populated" true
        (deadline_ms = 0.01 && elapsed_ms >= 0.)
  | Error e -> Alcotest.fail ("wrong error: " ^ Engine.error_to_string e)

let test_clean_run_reports_nothing () =
  let data = List.init 100 (fun i -> (iv i (i + 5), 1)) in
  match
    Engine.eval_robust ~memory_budget:1_000_000 ~deadline_ms:60_000.
      (Engine.Korder_tree { k = 1 })
      Monoid.count (List.to_seq data)
  with
  | Error e -> Alcotest.fail (Engine.error_to_string e)
  | Ok (tl, ds) ->
      let expected =
        Engine.eval Engine.Aggregation_tree Monoid.count (List.to_seq data)
      in
      check_timeline "clean result" expected tl;
      Alcotest.(check int) "no degradations" 0 (List.length ds)

(* Property: whatever the input order, ktree(1) under the fallback
   policy ends up agreeing with the reference evaluation. *)
let robust_ktree_matches_reference =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (let* s = int_bound 100 in
         let* len = int_range 1 20 in
         let* v = int_range 1 50 in
         return (iv s (s + len), v)))
  in
  QCheck2.Test.make ~name:"eval_robust ktree(1) = reference on any order"
    ~count:200 gen (fun data ->
      let expected = Reference.eval Monoid.count data in
      match
        Engine.eval_robust
          (Engine.Korder_tree { k = 1 })
          Monoid.count (List.to_seq data)
      with
      | Ok (tl, _) -> Timeline.equal Int.equal expected tl
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* eval_robust: parallel shard recovery                                *)
(* ------------------------------------------------------------------ *)

let shard_test_data () =
  (* Sorted everywhere except a swap confined to the second half: with
     contiguous sharding over 2 domains only shard 1 sees a violation. *)
  let data = Array.init 100 (fun i -> (iv i (i + 5), 1)) in
  let tmp = data.(70) in
  data.(70) <- data.(76);
  data.(76) <- tmp;
  data

let test_parallel_shard_recovers_inline () =
  let data = shard_test_data () in
  let alg =
    Engine.Parallel { domains = 2; inner = Engine.Korder_tree { k = 1 } }
  in
  let expected =
    Engine.eval Engine.Aggregation_tree Monoid.count (Array.to_seq data)
  in
  match Engine.eval_robust alg Monoid.count (Array.to_seq data) with
  | Error e -> Alcotest.fail (Engine.error_to_string e)
  | Ok (tl, ds) ->
      check_timeline "join completes" expected tl;
      check_mentions "failed shard named" ds "shard";
      check_mentions "inline re-evaluation named" ds "re-evaluated inline"

let test_parallel_shard_failure_fatal_under_fail () =
  let data = shard_test_data () in
  let alg =
    Engine.Parallel { domains = 2; inner = Engine.Korder_tree { k = 1 } }
  in
  match
    Engine.eval_robust ~on_error:Engine.Fail alg Monoid.count
      (Array.to_seq data)
  with
  | Ok _ -> Alcotest.fail "expected Not_k_ordered"
  | Error (Engine.Not_k_ordered _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Engine.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Instrument.absorb under concurrent shards                           *)
(* ------------------------------------------------------------------ *)

let absorb_peak_is_sum_of_shard_peaks =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 8)
        (let* allocs = int_bound 50 in
         let* frees = int_bound allocs in
         return (allocs, frees)))
  in
  QCheck2.Test.make ~name:"absorb: parent peak = sum of shard peaks"
    ~count:300 gen (fun shards ->
      let parent = Instrument.create () in
      let snapshots =
        List.map
          (fun (allocs, frees) ->
            let child = Instrument.create () in
            for _ = 1 to allocs do
              Instrument.alloc child
            done;
            Instrument.free_many child frees;
            Instrument.snapshot child)
          shards
      in
      (* All shards ran concurrently: absorb every snapshot before
         releasing any of them, as Parallel.eval does at the join. *)
      List.iter (Instrument.absorb parent) snapshots;
      let sum_peaks =
        List.fold_left
          (fun acc s -> acc + s.Instrument.peak_live)
          0 snapshots
      in
      let peak_ok = Instrument.peak_live parent = sum_peaks in
      Instrument.free_many parent sum_peaks;
      peak_ok
      && Instrument.live parent = 0
      && Instrument.allocated parent
         = List.fold_left (fun acc (a, _) -> acc + a) 0 shards)

(* ------------------------------------------------------------------ *)
(* Span robust evaluation                                              *)
(* ------------------------------------------------------------------ *)

let test_span_robust_fallback () =
  let granule = Granule.make 10 in
  let expected =
    Span.eval ~algorithm:Engine.Aggregation_tree ~granule Monoid.count
      (useq ())
  in
  match
    Span.eval_robust
      ~algorithm:(Engine.Korder_tree { k = 1 })
      ~granule Monoid.count (useq ())
  with
  | Error e -> Alcotest.fail (Engine.error_to_string e)
  | Ok (tl, ds) ->
      check_timeline "span timeline" expected tl;
      check_mentions "span degradations surface" ds "ktree"

(* ------------------------------------------------------------------ *)
(* TSQL: ON ERROR policies end to end                                  *)
(* ------------------------------------------------------------------ *)

let unsorted_catalog () =
  let schema = Schema.of_pairs [ ("salary", Value.Tint) ] in
  let tuples =
    List.map
      (fun (ivl, v) -> Tuple.make [| Value.Int v |] ivl)
      unsorted_data
  in
  Tsql.Catalog.add
    (Tsql.Catalog.with_builtins ())
    "Messy"
    (Trel.create schema tuples)

(* Plan and execute a query text through Eval's two entry points. *)
let execute ?memory_budget ?deadline_ms cat q =
  Result.bind (Tsql.Parser.parse q) (fun ast ->
      Result.bind (Tsql.Eval.plan cat ast)
        (Tsql.Eval.execute ?memory_budget ?deadline_ms cat))

let test_tsql_on_error_fallback () =
  let cat = unsorted_catalog () in
  let q = "SELECT COUNT(*) FROM Messy USING ktree(1) ON ERROR FALLBACK" in
  match execute cat q with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check bool) "degradations reported" true
        (report.Tsql.Eval.degradations <> []);
      let reference =
        match
          Tsql.Eval.query cat
            "SELECT COUNT(*) FROM Messy USING aggregation_tree"
        with
        | Ok rel -> rel
        | Error msg -> Alcotest.fail msg
      in
      Alcotest.(check int) "same row count as aggregation tree"
        (Trel.cardinality reference)
        (Trel.cardinality report.Tsql.Eval.result)

(* The statement's own ON ERROR clause holds on the plain paths too: no
   budget, no deadline, no override — and still the aggregation tree's
   answer instead of an order violation. *)
let test_tsql_on_error_honoured_without_guard () =
  let cat = unsorted_catalog () in
  let q = "SELECT COUNT(*) FROM Messy USING ktree(1) ON ERROR FALLBACK" in
  let rows rel =
    List.map
      (fun t -> (Array.to_list (Tuple.values t), Tuple.valid t))
      (Trel.tuples rel)
  in
  let reference =
    match
      Tsql.Eval.query cat "SELECT COUNT(*) FROM Messy USING aggregation_tree"
    with
    | Ok rel -> rows rel
    | Error msg -> Alcotest.fail msg
  in
  (match Tsql.Eval.query cat q with
  | Ok rel ->
      Alcotest.(check bool) "Eval.query = aggregation tree" true
        (rows rel = reference)
  | Error msg -> Alcotest.fail ("Eval.query: " ^ msg));
  match Tsql.Session.exec (Tsql.Session.create cat) q with
  | Ok (Tsql.Session.Rows rel) ->
      Alcotest.(check bool) "Session.exec = aggregation tree" true
        (rows rel = reference)
  | Ok (Tsql.Session.Ack msg) -> Alcotest.fail ("unexpected ack: " ^ msg)
  | Error msg -> Alcotest.fail ("Session.exec: " ^ msg)

let test_tsql_using_hint_fails_loudly_by_default () =
  let cat = unsorted_catalog () in
  match execute cat "SELECT COUNT(*) FROM Messy USING ktree(1)" with
  | Ok _ -> Alcotest.fail "expected failure: USING defaults to fail"
  | Error msg ->
      Alcotest.(check bool) "structured message" true
        (contains msg "not k-ordered")

let test_tsql_on_error_parse_and_print () =
  (match Tsql.Parser.parse "SELECT COUNT(*) FROM t ON ERROR SKIP" with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
      Alcotest.(check bool) "policy parsed" true
        (q.Tsql.Ast.on_error = Some Tempagg.Engine.Skip);
      Alcotest.(check bool) "policy printed" true
        (contains (Tsql.Ast.to_string q) "ON ERROR SKIP"));
  match Tsql.Parser.parse "SELECT COUNT(*) FROM t ON ERROR NONSENSE" with
  | Ok _ -> Alcotest.fail "accepted bad policy"
  | Error msg -> Alcotest.(check bool) "descriptive" true
        (contains msg "unknown on-error policy")

let test_tsql_deadline_overrides () =
  (* Big enough that the cooperative checks run long past an expired
     deadline; tiny inputs could finish inside the first clock stride. *)
  let schema = Schema.of_pairs [ ("v", Value.Tint) ] in
  let tuples =
    List.init 50_000 (fun i ->
        let s = i * 7919 mod 100_000 in
        Tuple.make [| Value.Int i |] (iv s (s + 50)))
  in
  let cat =
    Tsql.Catalog.add
      (Tsql.Catalog.with_builtins ())
      "Big"
      (Trel.create schema tuples)
  in
  let q = "SELECT COUNT(*) FROM Big USING sweep" in
  match execute ~deadline_ms:0.001 cat q with
  | Ok _ -> Alcotest.fail "expected deadline error"
  | Error msg ->
      Alcotest.(check bool) "deadline rendered" true
        (contains msg "deadline exceeded")

let test_tsql_explain_shows_policy () =
  let cat = unsorted_catalog () in
  match
    Tsql.Eval.explain cat
      "SELECT COUNT(*) FROM Messy USING ktree(1) ON ERROR FALLBACK"
  with
  | Error msg -> Alcotest.fail msg
  | Ok text ->
      Alcotest.(check bool) "policy visible" true
        (contains text "on error: fallback")

(* ------------------------------------------------------------------ *)
(* Storage: fault injection, checksums, retry, skip-and-count          *)
(* ------------------------------------------------------------------ *)

let schema =
  Schema.of_pairs [ ("name", Value.Tstring); ("salary", Value.Tint) ]

let sample_tuples n =
  List.init n (fun i ->
      Tuple.make
        [| Value.Str (Printf.sprintf "t%04d" i); Value.Int i |]
        (iv i (i + 10)))

let with_temp f =
  let path = Filename.temp_file "tempagg_robust" ".heap" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let write_sample ?page_size ?slot_bytes path n =
  let stats = Storage.Io_stats.create () in
  Storage.Heap_file.write_relation ?page_size ?slot_bytes ~stats path
    (Trel.create schema (sample_tuples n))

let test_fault_spec_roundtrip () =
  match Storage.Fault.of_string "transient=0.5,torn=0.25,bitflip=0.1,seed=7" with
  | Error e -> Alcotest.fail e
  | Ok f -> (
      Alcotest.(check int) "seed" 7 (Storage.Fault.seed f);
      match Storage.Fault.of_string (Storage.Fault.to_string f) with
      | Error e -> Alcotest.fail e
      | Ok f' ->
          Alcotest.(check string) "canonical form stable"
            (Storage.Fault.to_string f)
            (Storage.Fault.to_string f'))

let test_fault_spec_rejects () =
  let bad s =
    match Storage.Fault.of_string s with
    | Ok _ -> Alcotest.fail ("accepted " ^ s)
    | Error _ -> ()
  in
  bad "torn=2.0";
  bad "torn=-0.1";
  bad "bogus=1";
  bad "torn";
  bad "seed=x";
  match Storage.Fault.of_string "" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("empty spec rejected: " ^ e)

let test_fault_deterministic () =
  let f = Storage.Fault.create ~seed:7 ~torn:0.5 () in
  let g = Storage.Fault.create ~seed:7 ~torn:0.5 () in
  for page = 0 to 63 do
    Alcotest.(check bool)
      (Printf.sprintf "page %d same draw" page)
      (Storage.Fault.would_corrupt f ~path:"x" ~page)
      (Storage.Fault.would_corrupt g ~path:"x" ~page)
  done

let test_crc32_check_value () =
  (* The CRC-32/IEEE check value for "123456789". *)
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Storage.Codec.crc32 b ~pos:0 ~len:9)

let test_heap_v2_format () =
  with_temp (fun path ->
      write_sample path 200;
      let stats = Storage.Io_stats.create () in
      let r = Storage.Heap_file.open_reader ~stats path in
      Alcotest.(check int) "version 2" 2
        (Storage.Heap_file.format_version r);
      Alcotest.(check int) "all tuples back" 200
        (List.length (List.of_seq (Storage.Heap_file.scan r)));
      Storage.Heap_file.close_reader r)

let test_transient_faults_retried () =
  with_temp (fun path ->
      write_sample path 300;
      let stats = Storage.Io_stats.create () in
      (* Rate 1.0: every data page fails its first read attempt and the
         bounded retry always recovers — whatever the seed, so the CI
         seed matrix (TEMPAGG_FAULT_SEED) exercises the same path. *)
      let fault = Storage.Fault.create ~transient:1.0 () in
      let rel =
        Storage.Heap_file.read_relation ~fault ~stats path
      in
      Alcotest.(check int) "nothing lost" 300 (Trel.cardinality rel);
      let data_pages =
        let r = Storage.Heap_file.open_reader ~stats path in
        let p = Storage.Heap_file.data_pages r in
        Storage.Heap_file.close_reader r;
        p
      in
      Alcotest.(check int) "one retry per data page" data_pages
        (Storage.Io_stats.retries stats);
      Alcotest.(check int) "no page flagged corrupt" 0
        (Storage.Io_stats.corrupt_pages stats))

let test_corruption_detected_by_checksum () =
  with_temp (fun path ->
      write_sample path 300;
      let stats = Storage.Io_stats.create () in
      let fault = Storage.Fault.create ~bitflip:1.0 () in
      let r = Storage.Heap_file.open_reader ~fault ~stats path in
      Alcotest.(check bool) "scan raises Corrupt_page" true
        (match List.of_seq (Storage.Heap_file.scan r) with
        | _ -> false
        | exception Storage.Heap_file.Corrupt_page { page; _ } -> page = 0);
      Storage.Heap_file.close_reader r;
      Alcotest.(check bool) "corruption counted" true
        (Storage.Io_stats.corrupt_pages stats > 0))

let test_torn_pages_skipped_and_counted () =
  with_temp (fun path ->
      write_sample path 300;
      let stats = Storage.Io_stats.create () in
      let fault = Storage.Fault.create ~torn:1.0 () in
      let r = Storage.Heap_file.open_reader ~fault ~stats path in
      let pages = Storage.Heap_file.data_pages r in
      let kept =
        List.of_seq (Storage.Heap_file.scan ~on_corrupt:`Skip r)
      in
      Alcotest.(check int) "every page torn, nothing decodes" 0
        (List.length kept);
      Alcotest.(check int) "every loss counted" pages
        (Storage.Io_stats.corrupt_pages stats);
      Storage.Heap_file.close_reader r)

let test_partial_corruption_skip_keeps_clean_pages () =
  with_temp (fun path ->
      (* Small pages so the file spans many pages and a partial fault
         rate leaves both clean and torn ones. *)
      write_sample ~page_size:512 ~slot_bytes:64 path 300;
      let stats = Storage.Io_stats.create () in
      let fault = Storage.Fault.create ~torn:0.4 () in
      let r = Storage.Heap_file.open_reader ~fault ~stats path in
      let pages = Storage.Heap_file.data_pages r in
      let slots = (512 - 4 - 4) / 64 in
      (* The injector is a pure function of (seed, path, page): compute
         exactly which pages it will tear and hence how many tuples the
         skipping scan must still deliver. *)
      let expected_kept = ref 0 and expected_torn = ref 0 in
      for p = 0 to pages - 1 do
        let tuples_on_page = min slots (300 - (p * slots)) in
        if Storage.Fault.would_corrupt fault ~path ~page:p then
          incr expected_torn
        else expected_kept := !expected_kept + tuples_on_page
      done;
      let kept =
        List.of_seq (Storage.Heap_file.scan ~on_corrupt:`Skip r)
      in
      Alcotest.(check int) "clean pages all delivered" !expected_kept
        (List.length kept);
      Alcotest.(check int) "torn pages all counted" !expected_torn
        (Storage.Io_stats.corrupt_pages stats);
      Storage.Heap_file.close_reader r)

let quick name f = Alcotest.test_case name `Quick f
let prop t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "robust"
    [
      ( "guard",
        [
          quick "validation" test_guard_validation;
          quick "unlimited is free" test_guard_unlimited;
          quick "deadline trips" test_guard_deadline_trips;
          quick "budget trips at the crossing alloc" test_guard_budget_trips;
          quick "wrap_seq checks before each pull" test_guard_wrap_seq;
          quick "describe" test_guard_describe;
          quick "split ways=1 preserves budget" test_guard_split_one_way_preserves;
          quick "split of zero budget" test_guard_split_zero_budget;
          quick "split rounds down, never oversubscribes"
            test_guard_split_rounds_down;
          quick "split shares the deadline clock"
            test_guard_split_shares_deadline_clock;
        ] );
      ( "algorithm-names",
        [
          quick "name/of_string round trip" test_algorithm_name_roundtrip;
          quick "descriptive rejections" test_algorithm_of_string_rejects;
        ] );
      ( "fallback-chain",
        [
          quick "ktree(1) on unsorted input = aggregation tree"
            test_ktree_fallback_matches_reference;
          quick "fail policy is terminal" test_ktree_fail_policy_is_terminal;
          quick "hopeless k concedes to aggregation tree"
            test_ktree_fallback_concedes_to_agg_tree;
          quick "skip drops and counts" test_skip_policy_drops_and_counts;
          quick "blown budget falls back to sweep"
            test_budget_fallback_to_sweep;
          quick "budget under fail policy" test_budget_fail_policy_is_terminal;
          quick "deadline is always terminal" test_deadline_always_terminal;
          quick "clean run reports nothing" test_clean_run_reports_nothing;
          prop robust_ktree_matches_reference;
        ] );
      ( "parallel-recovery",
        [
          quick "failed shard re-evaluated inline"
            test_parallel_shard_recovers_inline;
          quick "shard failure fatal under fail policy"
            test_parallel_shard_failure_fatal_under_fail;
          prop absorb_peak_is_sum_of_shard_peaks;
        ] );
      ("span", [ quick "span eval_robust falls back" test_span_robust_fallback ]);
      ( "tsql",
        [
          quick "ON ERROR FALLBACK recovers" test_tsql_on_error_fallback;
          quick "ON ERROR honoured without a guard"
            test_tsql_on_error_honoured_without_guard;
          quick "USING hint fails loudly by default"
            test_tsql_using_hint_fails_loudly_by_default;
          quick "ON ERROR parse and print" test_tsql_on_error_parse_and_print;
          quick "deadline override" test_tsql_deadline_overrides;
          quick "explain shows the policy" test_tsql_explain_shows_policy;
        ] );
      ( "storage-faults",
        [
          quick "spec round trip" test_fault_spec_roundtrip;
          quick "spec validation" test_fault_spec_rejects;
          quick "draws are deterministic" test_fault_deterministic;
          quick "crc32 check value" test_crc32_check_value;
          quick "heap files are version 2" test_heap_v2_format;
          quick "transient faults retried" test_transient_faults_retried;
          quick "corruption detected by checksum"
            test_corruption_detected_by_checksum;
          quick "torn pages skipped and counted"
            test_torn_pages_skipped_and_counted;
          quick "partial corruption keeps clean pages"
            test_partial_corruption_skip_keeps_clean_pages;
        ] );
    ]
