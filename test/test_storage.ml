(* Tests for the storage substrate: fixed-width tuple codec, heap files
   with page-level I/O accounting, and the external merge sort behind the
   paper's "sort first, then ktree(1)" strategy. *)

open Temporal
open Relation
open Storage

let iv = Interval.of_ints

let schema =
  Schema.of_pairs
    [ ("name", Value.Tstring); ("salary", Value.Tint);
      ("rate", Value.Tfloat) ]

let tuple ?(name = "alice") ?(salary = Value.Int 42_000)
    ?(rate = Value.Float 1.5) valid =
  Tuple.make [| Value.Str name; salary; rate |] valid

let temp_path () = Filename.temp_file "tempagg_test" ".heap"

let with_temp f =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip t =
  let slot = Codec.default_slot_bytes in
  Codec.decode schema (Codec.encode ~slot_bytes:slot t) ~pos:0

let test_codec_roundtrip_basic () =
  let t = tuple (iv 5 99) in
  Alcotest.(check bool) "equal" true (Tuple.equal t (roundtrip t))

let test_codec_roundtrip_unbounded () =
  let t = tuple (Interval.from (Chronon.of_int 18)) in
  let back = roundtrip t in
  Alcotest.(check bool) "forever preserved" true
    (Chronon.equal (Tuple.stop back) Chronon.forever)

let test_codec_roundtrip_nulls () =
  let t =
    Tuple.make [| Value.Null; Value.Null; Value.Null |] (iv 0 0)
  in
  Alcotest.(check bool) "nulls" true (Tuple.equal t (roundtrip t))

let test_codec_roundtrip_negative_and_float () =
  let t =
    Tuple.make
      [| Value.Str ""; Value.Int (-123456); Value.Float (-0.25) |]
      (iv 1 2)
  in
  Alcotest.(check bool) "values" true (Tuple.equal t (roundtrip t))

let test_codec_oversize_rejected () =
  let t = tuple ~name:(String.make 200 'x') (iv 0 1) in
  Alcotest.(check bool) "raises" true
    (match Codec.encode ~slot_bytes:128 t with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_codec_encoded_size () =
  (* 16 (valid) + (3+5) str + 9 int + 9 float *)
  Alcotest.(check int) "size" (16 + 8 + 9 + 9)
    (Codec.encoded_size (tuple (iv 0 1)))

let test_codec_wrong_tag_rejected () =
  let buf = Codec.encode ~slot_bytes:128 (tuple (iv 0 1)) in
  (* First column is a string; decode against an int schema. *)
  let bad_schema = Schema.of_pairs [ ("x", Value.Tint) ] in
  Alcotest.(check bool) "raises" true
    (match Codec.decode bad_schema buf ~pos:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Heap file                                                           *)
(* ------------------------------------------------------------------ *)

let sample_tuples n =
  List.init n (fun i -> tuple ~name:(Printf.sprintf "t%04d" i) (iv i (i + 10)))

let test_heap_roundtrip () =
  with_temp (fun path ->
      let stats = Io_stats.create () in
      let rel = Trel.create schema (sample_tuples 500) in
      Heap_file.write_relation ~stats path rel;
      let back = Heap_file.read_relation ~stats path in
      Alcotest.(check int) "cardinality" 500 (Trel.cardinality back);
      List.iter2
        (fun a b -> Alcotest.(check bool) "tuple" true (Tuple.equal a b))
        (Trel.tuples rel) (Trel.tuples back))

let test_heap_preserves_physical_order () =
  with_temp (fun path ->
      let stats = Io_stats.create () in
      let tuples =
        [ tuple (iv 50 60); tuple (iv 1 2); tuple (iv 30 90) ]
      in
      Heap_file.write_relation ~stats path (Trel.create schema tuples);
      let back = Heap_file.read_relation ~stats path in
      Alcotest.(check bool) "order kept" true
        (List.for_all2 Tuple.equal tuples (Trel.tuples back)))

let test_heap_page_accounting () =
  with_temp (fun path ->
      let stats = Io_stats.create () in
      let n = 500 in
      Heap_file.write_relation ~stats path (Trel.create schema (sample_tuples n));
      let written = Io_stats.pages_written stats in
      (* 63 slots per 8K page at 128B -> 8 data pages + 1 header. *)
      let slots = (8192 - 4) / 128 in
      Alcotest.(check int) "writes" (((n + slots - 1) / slots) + 1) written;
      Io_stats.reset stats;
      let r = Heap_file.open_reader ~stats path in
      Alcotest.(check int) "header read" 1 (Io_stats.pages_read stats);
      Alcotest.(check int) "cardinality" n (Heap_file.cardinality r);
      Alcotest.(check int) "data pages" ((n + slots - 1) / slots)
        (Heap_file.data_pages r);
      ignore (List.of_seq (Heap_file.scan r));
      Alcotest.(check int) "scan reads every data page"
        (1 + Heap_file.data_pages r)
        (Io_stats.pages_read stats);
      Heap_file.close_reader r)

let test_heap_empty_relation () =
  with_temp (fun path ->
      let stats = Io_stats.create () in
      Heap_file.write_relation ~stats path (Trel.create schema []);
      let back = Heap_file.read_relation ~stats path in
      Alcotest.(check int) "empty" 0 (Trel.cardinality back))

let test_heap_custom_page_and_slot () =
  with_temp (fun path ->
      let stats = Io_stats.create () in
      Heap_file.write_relation ~page_size:512 ~slot_bytes:64 ~stats path
        (Trel.create schema (sample_tuples 40));
      let r = Heap_file.open_reader ~stats path in
      Alcotest.(check int) "page size from header" 512 (Heap_file.page_size r);
      Alcotest.(check int) "slot size from header" 64 (Heap_file.slot_bytes r);
      Alcotest.(check int) "tuples" 40 (List.length (List.of_seq (Heap_file.scan r)));
      Heap_file.close_reader r)

let test_heap_bad_magic () =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.make 9000 'x'));
      let stats = Io_stats.create () in
      Alcotest.(check bool) "rejected" true
        (match Heap_file.open_reader ~stats path with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_heap_writer_after_close_rejected () =
  with_temp (fun path ->
      let stats = Io_stats.create () in
      let w = Heap_file.create ~stats path schema in
      Heap_file.close_writer w;
      Alcotest.(check bool) "rejected" true
        (match Heap_file.append w (tuple (iv 0 1)) with
        | _ -> false
        | exception Invalid_argument _ -> true))

(* ------------------------------------------------------------------ *)
(* External sort                                                       *)
(* ------------------------------------------------------------------ *)

let shuffled_tuples n seed =
  let prng = Workload.Prng.create ~seed in
  Array.to_list
    (Ordering.Perturb.shuffle
       ~rand:(Workload.Prng.int_bounded prng)
       (Array.of_list (sample_tuples n)))

let sort_file ?memory_tuples ?fan_in n seed =
  let src = temp_path () and dst = temp_path () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ src; dst ])
    (fun () ->
      let stats = Io_stats.create () in
      Heap_file.write_relation ~stats src
        (Trel.create schema (shuffled_tuples n seed));
      Io_stats.reset stats;
      External_sort.sort ?memory_tuples ?fan_in ~stats ~src ~dst ();
      let sorted = Heap_file.read_relation ~stats dst in
      (sorted, Io_stats.snapshot stats))

let test_sort_produces_time_order () =
  let sorted, _ = sort_file ~memory_tuples:64 1000 7 in
  Alcotest.(check bool) "ordered" true (Trel.is_time_ordered sorted);
  Alcotest.(check int) "all tuples kept" 1000 (Trel.cardinality sorted)

let test_sort_single_run () =
  (* Everything fits in memory: one run, trivially correct. *)
  let sorted, _ = sort_file ~memory_tuples:10_000 300 1 in
  Alcotest.(check bool) "ordered" true (Trel.is_time_ordered sorted)

let test_sort_multi_pass () =
  (* 1000 tuples, 20-tuple runs, fan-in 3 -> several merge levels. *)
  let sorted, _ = sort_file ~memory_tuples:20 ~fan_in:3 1000 11 in
  Alcotest.(check bool) "ordered" true (Trel.is_time_ordered sorted);
  Alcotest.(check int) "all tuples kept" 1000 (Trel.cardinality sorted)

let test_sort_stability () =
  (* Duplicate valid times: payloads must keep input order. *)
  let src = temp_path () and dst = temp_path () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ src; dst ])
    (fun () ->
      let stats = Io_stats.create () in
      let tuples =
        List.init 100 (fun i ->
            tuple ~name:(Printf.sprintf "n%03d" i) (iv (i mod 3) 100))
      in
      Heap_file.write_relation ~stats src (Trel.create schema tuples);
      External_sort.sort ~memory_tuples:16 ~fan_in:2 ~stats ~src ~dst ();
      let sorted = Heap_file.read_relation ~stats dst in
      let names_of start =
        List.filter_map
          (fun t ->
            if Chronon.to_int (Tuple.start t) = start then
              match Tuple.value t 0 with
              | Value.Str s -> Some s
              | _ -> None
            else None)
          (Trel.tuples sorted)
      in
      List.iter
        (fun start ->
          let names = names_of start in
          Alcotest.(check (list string))
            (Printf.sprintf "start %d stable" start)
            (List.sort String.compare names)
            names)
        [ 0; 1; 2 ])

let test_sort_empty () =
  let sorted, _ = sort_file ~memory_tuples:16 1 3 in
  Alcotest.(check int) "one tuple" 1 (Trel.cardinality sorted)

let test_sort_io_matches_estimate () =
  let n = 1000 and memory_tuples = 64 and fan_in = 4 in
  let _, io = sort_file ~memory_tuples ~fan_in n 13 in
  let slots = (8192 - 4) / 128 in
  let pages = (n + slots - 1) / slots in
  let estimate = External_sort.estimated_page_io ~n ~pages ~memory_tuples ~fan_in in
  let total = io.Io_stats.pages_read + io.Io_stats.pages_written in
  (* Headers and partial run pages add overhead; the estimate must be the
     right order of magnitude (within 3x). *)
  Alcotest.(check bool)
    (Printf.sprintf "estimate %d vs measured %d" estimate total)
    true
    (total >= estimate && total <= 3 * estimate)

let test_sort_knob_validation () =
  let stats = Io_stats.create () in
  Alcotest.(check bool) "memory_tuples" true
    (match External_sort.sort ~memory_tuples:0 ~stats ~src:"x" ~dst:"y" () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "fan_in" true
    (match External_sort.sort ~fan_in:1 ~stats ~src:"x" ~dst:"y" () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_run_count () =
  Alcotest.(check int) "exact" 4 (External_sort.run_count ~n:100 ~memory_tuples:25);
  Alcotest.(check int) "ragged" 5 (External_sort.run_count ~n:101 ~memory_tuples:25)

(* Sorted heap file feeds the paper's recommended strategy. *)
let test_sort_then_ktree_pipeline () =
  let src = temp_path () and dst = temp_path () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ src; dst ])
    (fun () ->
      let stats = Io_stats.create () in
      let spec = Workload.Spec.make ~n:800 ~lifespan:20_000 ~seed:5 () in
      let rel = Workload.Generate.relation spec in
      Heap_file.write_relation ~stats src rel;
      External_sort.sort ~memory_tuples:100 ~stats ~src ~dst ();
      let r = Heap_file.open_reader ~stats dst in
      let timeline =
        Tempagg.Korder_tree.eval ~k:1 Tempagg.Monoid.count
          (Seq.map (fun t -> (Tuple.valid t, ())) (Heap_file.scan r))
      in
      Heap_file.close_reader r;
      let expected =
        Tempagg.Agg_tree.eval Tempagg.Monoid.count
          (Seq.map (fun t -> (t, ())) (Trel.intervals rel))
      in
      Alcotest.(check bool) "pipeline result correct" true
        (Timeline.equal Int.equal timeline expected))


let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "storage"
    [
      ( "codec",
        [
          quick "roundtrip" test_codec_roundtrip_basic;
          quick "unbounded stop" test_codec_roundtrip_unbounded;
          quick "nulls" test_codec_roundtrip_nulls;
          quick "negative ints, floats, empty strings"
            test_codec_roundtrip_negative_and_float;
          quick "oversize rejected" test_codec_oversize_rejected;
          quick "encoded size" test_codec_encoded_size;
          quick "wrong tag rejected" test_codec_wrong_tag_rejected;
        ] );
      ( "heap-file",
        [
          quick "roundtrip" test_heap_roundtrip;
          quick "preserves physical order" test_heap_preserves_physical_order;
          quick "page accounting" test_heap_page_accounting;
          quick "empty relation" test_heap_empty_relation;
          quick "custom page and slot sizes" test_heap_custom_page_and_slot;
          quick "bad magic rejected" test_heap_bad_magic;
          quick "append after close rejected"
            test_heap_writer_after_close_rejected;
        ] );
      ( "external-sort",
        [
          quick "produces time order" test_sort_produces_time_order;
          quick "single run" test_sort_single_run;
          quick "multi-pass merge" test_sort_multi_pass;
          quick "stability" test_sort_stability;
          quick "tiny input" test_sort_empty;
          quick "io matches estimate" test_sort_io_matches_estimate;
          quick "knob validation" test_sort_knob_validation;
          quick "run count" test_run_count;
          quick "sort + ktree(1) pipeline" test_sort_then_ktree_pipeline;
        ] );
    ]
