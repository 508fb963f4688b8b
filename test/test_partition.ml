(* Property tests for time-partitioned storage: a sharded partition must
   be indistinguishable from a single heap — same tuples, same answers
   under any statement and any boundary choice — while pruning,
   splitting, repartitioning and shard faults happen around it.

   The load-bearing properties are [sharded_equals_single]: bind the
   same random tuples in memory and as partitions with random
   boundaries, run one random statement (an aggregate with optional
   WHERE, GROUP BY, DURING, GROUP BY SPAN and interval JOIN) through
   [Session.exec_statement] on both, and demand the same rendered
   answer — and, for an ungrouped join-free statement, the brute-force
   reference timeline.  A pruning rule that used the owned range instead
   of the extent (dropping tuples that start in one shard but overhang
   into the window), or a slice that starts one tuple off, fails them
   at once. *)

open Temporal
open Relation
open Storage

let iv = Interval.of_ints
let schema = Schema.of_pairs [ ("v", Value.Tint) ]
let tuple_of (ivl, v) = Tuple.make [| Value.Int v |] ivl

let value_of t =
  match Tuple.value t 0 with Value.Int v -> v | _ -> assert false

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Temp-dir plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_partition ?split_threshold ?fault ~boundaries tuples f =
  let dir = Filename.temp_file "tempagg_part" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let p = Partition.create ?split_threshold ?fault ~boundaries ~dir schema in
      List.iter (fun d -> Partition.insert p (tuple_of d)) tuples;
      Partition.flush p;
      f p)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let max_time = 200

(* Bounded intervals over a small domain, so boundary collisions and
   shard-straddling overhangs are common. *)
let gen_data =
  QCheck2.Gen.(
    let gen_tuple =
      let* s = int_bound (max_time - 1) in
      let* len = int_bound 60 in
      let* v = int_range 1 100 in
      return (iv s (min (max_time - 1) (s + len)), v)
    in
    list_size (int_range 0 40) gen_tuple)

let gen_boundaries =
  QCheck2.Gen.(
    let* bs = list_size (int_range 0 6) (int_range 1 (max_time - 1)) in
    return (List.sort_uniq Int.compare bs))

let gen_window =
  QCheck2.Gen.(
    let* none = map (fun n -> n = 0) (int_bound 4) in
    if none then return None
    else
      let* lo = int_bound (max_time - 1) in
      let* len = int_bound 80 in
      return (Some (iv lo (min (max_time - 1) (lo + len)))))

let gen_case = QCheck2.Gen.triple gen_data gen_boundaries gen_window

let print_case (data, boundaries, window) =
  Printf.sprintf "data=[%s] boundaries=[%s] window=%s"
    (String.concat "; "
       (List.map
          (fun (ivl, v) -> Printf.sprintf "%s=%d" (Interval.to_string ivl) v)
          data))
    (String.concat "," (List.map string_of_int boundaries))
    (match window with None -> "none" | Some w -> Interval.to_string w)

(* ------------------------------------------------------------------ *)
(* The statement path: one relation, two placements                    *)
(* ------------------------------------------------------------------ *)

let clip window ivl =
  match window with None -> Some ivl | Some w -> Interval.intersect ivl w

let with_dirs n f =
  let dirs =
    List.init n (fun _ ->
        let dir = Filename.temp_file "tempagg_part" "" in
        Sys.remove dir;
        dir)
  in
  Fun.protect ~finally:(fun () -> List.iter rm_rf dirs) (fun () -> f dirs)

(* A partition holding [tuples], reopened from its directory the way a
   server session binds one. *)
let stored ~dir ~boundaries schema tuples =
  let p = Partition.create ~boundaries ~dir schema in
  List.iter (Partition.insert p) tuples;
  Partition.flush p;
  Partition.load dir

let select session text =
  match Tsql.Parser.parse_statement text with
  | Error e -> Error e
  | Ok stmt -> (
      match Tsql.Session.exec_statement session stmt with
      | Ok (Tsql.Session.Rows rel) -> Ok rel
      | Ok (Tsql.Session.Ack a) -> Error ("unexpected ack: " ^ a)
      | Error e -> Error e)

(* A one-column answer as (valid time, value) rows. *)
let answer_rows rel =
  List.map (fun t -> (Tuple.valid t, Tuple.value t 0)) (Trel.tuples rel)

(* The reference timeline over [window] (the whole time-line without
   one), coalesced the way a statement's answer is. *)
let reference_rows ~window ~to_value monoid pairs =
  let origin, horizon =
    match window with
    | Some w -> (Interval.start w, Interval.stop w)
    | None -> (Chronon.origin, Chronon.forever)
  in
  Timeline.to_list
    (Timeline.coalesce ~equal:Value.equal
       (Timeline.map to_value
          (Tempagg.Reference.eval ~origin ~horizon monoid pairs)))

let close_values a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x)
  | _ -> Value.equal a b

let same_rows a b =
  List.equal
    (fun (i, x) (j, y) -> Interval.equal i j && close_values x y)
    a b

(* Relations r and s: a group attribute, a nullable int, and intervals
   over a small domain with the odd open-ended tuple, so shard
   overhangs, duplicates and NULLs are common. *)
let sql_schema = Schema.of_pairs [ ("g", Value.Tstring); ("v", Value.Tint) ]

let gen_row =
  QCheck2.Gen.(
    let* s = int_bound (max_time - 1) in
    let* stop =
      frequency
        [
          (1, return Chronon.forever);
          (9, map (fun len -> Chronon.of_int (min (max_time - 1) (s + len)))
                (int_bound 60));
        ]
    in
    let* g = oneofl [ "a"; "b"; "c" ] in
    let* v = frequency [ (1, return None); (6, map Option.some (int_range 1 100)) ] in
    return (Interval.make (Chronon.of_int s) stop, g, v))

let gen_rows = QCheck2.Gen.(list_size (int_range 0 30) gen_row)

let row_tuple (ivl, g, v) =
  Tuple.make
    [| Value.Str g; (match v with None -> Value.Null | Some v -> Value.Int v) |]
    ivl

(* Which relations the second placement partitions under a join; r
   alone is partitioned otherwise. *)
type side = Left | Right | Both

type stmt = {
  star : bool;  (** COUNT( * ) rather than COUNT(v) *)
  where : [ `Gt of int | `Eq of string ] option;
  by_g : bool;
  span : int option;
  window : (int * int) option;
  join : side option;
}

let gen_stmt ~star_allowed =
  QCheck2.Gen.(
    let* star = if star_allowed then bool else return false in
    let* where =
      frequency
        [
          (2, return None);
          (1, map (fun k -> Some (`Gt k)) (int_range 1 100));
          (1, map (fun g -> Some (`Eq g)) (oneofl [ "a"; "b" ]));
        ]
    in
    let* by_g = map (fun n -> n = 0) (int_bound 2) in
    let* span = frequency [ (2, return None); (1, map Option.some (int_range 1 40)) ] in
    let* window =
      frequency
        [
          (1, return None);
          ( 2,
            let* lo = int_bound (max_time - 1) in
            let* len = int_bound 80 in
            return (Some (lo, min (max_time - 1) (lo + len))) );
        ]
    in
    let* join =
      frequency [ (2, return None); (1, map Option.some (oneofl [ Left; Right; Both ])) ]
    in
    return { star; where; by_g; span; window; join })

let sql fn st =
  let col c = if st.join = None then c else "r." ^ c in
  let where =
    match st.where with
    | None -> ""
    | Some (`Gt k) -> Printf.sprintf " WHERE %s > %d" (col "v") k
    | Some (`Eq g) -> Printf.sprintf " WHERE %s = '%s'" (col "g") g
  in
  let groups =
    (if st.by_g then [ col "g" ] else [])
    @ Option.fold ~none:[] ~some:(fun n -> [ Printf.sprintf "SPAN %d" n ]) st.span
  in
  Printf.sprintf "SELECT %s(%s) FROM %s%s%s%s" fn
    (if st.star then "*" else col "v")
    (if st.join = None then "r" else "r JOIN s ON r.vt OVERLAPS s.vt")
    (match st.window with
    | None -> ""
    | Some (a, b) -> Printf.sprintf " DURING [%d,%d]" a b)
    where
    (match groups with [] -> "" | gs -> " GROUP BY " ^ String.concat ", " gs)

let gen_stmt_case ~star_allowed =
  QCheck2.Gen.(
    let* st = gen_stmt ~star_allowed in
    let* r = gen_rows in
    let* s = gen_rows in
    let* rb = gen_boundaries in
    let* sb = gen_boundaries in
    return (st, r, s, rb, sb))

let print_rows rows =
  String.concat "; "
    (List.map
       (fun (ivl, g, v) ->
         Printf.sprintf "%s %s %s" (Interval.to_string ivl) g
           (Option.fold ~none:"null" ~some:string_of_int v))
       rows)

let print_stmt_case fn (st, r, s, rb, sb) =
  let bounds bs = String.concat "," (List.map string_of_int bs) in
  Printf.sprintf "%s\npartitioned: %s\nr=[%s] boundaries=[%s]\ns=[%s] boundaries=[%s]"
    (sql fn st)
    (match st.join with
    | None | Some Left -> "r"
    | Some Right -> "s"
    | Some Both -> "r, s")
    (print_rows r) (bounds rb) (print_rows s) (bounds sb)

(* The statement shapes every run must draw at least once. *)
let shapes =
  [
    ("COUNT(*)", fun st -> st.star);
    ("WHERE", fun st -> st.where <> None);
    ("GROUP BY attribute", fun st -> st.by_g);
    ("GROUP BY SPAN", fun st -> st.span <> None);
    ("DURING", fun st -> st.window <> None);
    ("JOIN, left partitioned", fun st -> st.join = Some Left);
    ("JOIN, right partitioned", fun st -> st.join = Some Right);
    ("JOIN, both partitioned", fun st -> st.join = Some Both);
    ( "single aggregate",
      fun st -> st.join = None && (not st.by_g) && st.span = None );
  ]

(* Run [fn]'s statement over the same tuples placed in memory and placed
   in partitions with random boundaries, through the whole statement
   path ([Session.exec_statement]): the rendered answers must agree,
   and an ungrouped, join-free answer must equal the reference
   timeline over the filtered, clipped pairs. *)
let sharded_equals_single ~name ~fn ~monoid ~to_value =
  let seen = Hashtbl.create 16 in
  let star_allowed = fn = "COUNT" in
  let test =
    QCheck2.Test.make ~name ~count:60 ~print:(print_stmt_case fn)
      (gen_stmt_case ~star_allowed)
      (fun ((st, r, s, rb, sb) as case) ->
        List.iter
          (fun (shape, drawn) -> if drawn st then Hashtbl.replace seen shape ())
          shapes;
        let text = sql fn st in
        let in_memory =
          List.fold_left
            (fun cat (name, rows) ->
              Tsql.Catalog.add cat name
                (Trel.create sql_schema (List.map row_tuple rows)))
            (Tsql.Catalog.create ())
            [ ("r", r); ("s", s) ]
        in
        let parted =
          match st.join with
          | None | Some Left -> [ ("r", r, rb) ]
          | Some Right -> [ ("s", s, sb) ]
          | Some Both -> [ ("r", r, rb); ("s", s, sb) ]
        in
        with_dirs (List.length parted) (fun dirs ->
            let placed = Tsql.Session.create in_memory in
            List.iter2
              (fun (name, rows, boundaries) dir ->
                Tsql.Session.add_partition placed name
                  (stored ~dir ~boundaries sql_schema (List.map row_tuple rows)))
              parted dirs;
            match
              (select (Tsql.Session.create in_memory) text, select placed text)
            with
            | Error e, _ | _, Error e ->
                QCheck2.Test.fail_reportf "%s: %s" text e
            | Ok single, Ok sharded ->
                let rendered = Tsql.Pretty.result_to_string in
                if rendered single <> rendered sharded then
                  QCheck2.Test.fail_reportf "%s\nin memory:\n%s\npartitioned:\n%s"
                    (print_stmt_case fn case) (rendered single) (rendered sharded);
                if st.join <> None || st.by_g || st.span <> None then true
                else
                  let window = Option.map (fun (a, b) -> iv a b) st.window in
                  let passes (_, g, v) =
                    match st.where with
                    | None -> true
                    | Some (`Gt k) -> Option.fold ~none:false ~some:(fun v -> v > k) v
                    | Some (`Eq x) -> g = x
                  in
                  let pairs =
                    List.filter_map
                      (fun ((ivl, _, v) as row) ->
                        let v = if st.star then Some 0 else v in
                        match (passes row, v) with
                        | true, Some v ->
                            Option.map (fun c -> (c, v)) (clip window ivl)
                        | _ -> None)
                      r
                  in
                  same_rows (answer_rows sharded)
                    (reference_rows ~window ~to_value monoid pairs)))
  in
  let name, speed, run = QCheck_alcotest.to_alcotest ~long:false test in
  ( name,
    speed,
    fun () ->
      Hashtbl.reset seen;
      run ();
      List.iter
        (fun (shape, _) ->
          if (star_allowed || shape <> "COUNT(*)")
             && not (Hashtbl.mem seen shape)
          then Alcotest.failf "%s: no %s statement was drawn" name shape)
        shapes )

let int_value n = Value.Int n
let option_value = function None -> Value.Null | Some v -> Value.Int v

(* COUNT( * ) of [p] through the statement path must equal the
   reference over [data] clipped to [window]. *)
let count_matches p window data =
  let session = Tsql.Session.create (Tsql.Catalog.create ()) in
  Tsql.Session.add_partition session "r" p;
  let text =
    "SELECT COUNT(*) FROM r"
    ^ Option.fold ~none:""
        ~some:(fun w ->
          Printf.sprintf " DURING [%d,%d]"
            (Chronon.to_int (Interval.start w))
            (Chronon.to_int (Interval.stop w)))
        window
  in
  match select session text with
  | Error e -> QCheck2.Test.fail_reportf "%s: %s" text e
  | Ok rel ->
      same_rows (answer_rows rel)
        (reference_rows ~window ~to_value:int_value Tempagg.Monoid.count
           (List.filter_map
              (fun (ivl, v) -> Option.map (fun c -> (c, v)) (clip window ivl))
              data))

let count_sharded =
  sharded_equals_single ~name:"COUNT: sharded = single heap" ~fn:"COUNT"
    ~monoid:Tempagg.Monoid.count ~to_value:int_value

let sum_sharded =
  sharded_equals_single ~name:"SUM: sharded = single heap" ~fn:"SUM"
    ~monoid:Tempagg.Monoid.sum_int ~to_value:int_value

let min_sharded =
  sharded_equals_single ~name:"MIN: sharded = single heap" ~fn:"MIN"
    ~monoid:Tempagg.Monoid.min_int ~to_value:option_value

let max_sharded =
  sharded_equals_single ~name:"MAX: sharded = single heap" ~fn:"MAX"
    ~monoid:Tempagg.Monoid.max_int ~to_value:option_value

let avg_sharded =
  sharded_equals_single ~name:"AVG: sharded = single heap" ~fn:"AVG"
    ~monoid:Tempagg.Monoid.avg_int
    ~to_value:(function None -> Value.Null | Some f -> Value.Float f)

(* ------------------------------------------------------------------ *)
(* Structural invariants                                               *)
(* ------------------------------------------------------------------ *)

let multiset tuples =
  List.sort String.compare
    (List.map
       (fun t ->
         Printf.sprintf "%s=%d" (Interval.to_string (Tuple.valid t)) (value_of t))
       tuples)

let input_multiset data = multiset (List.map tuple_of data)

let materialize_preserves_tuples =
  QCheck2.Test.make ~name:"materialize: multiset preserved, layout sums"
    ~count:120 ~print:print_case gen_case
    (fun (data, boundaries, _) ->
      with_partition ~boundaries data (fun p ->
          let rel = Partition.materialize p in
          let layout = Partition.shard_layout p in
          input_multiset data = multiset (Trel.tuples rel)
          && List.fold_left (fun a (_, n) -> a + n) 0 layout
             = List.length data
          && Partition.cardinality p = List.length data))

(* A shard's layout cardinalities are the joints of [materialize]'s
   order: slicing the materialized tuple list by them recovers exactly
   each shard's own tuples (the contiguous-slice property the parallel
   plan relies on). *)
let contiguous_slices =
  QCheck2.Test.make ~name:"materialize: shards are contiguous slices"
    ~count:120 ~print:print_case gen_case
    (fun (data, boundaries, _) ->
      with_partition ~boundaries data (fun p ->
          let all = Trel.tuples (Partition.materialize p) in
          let rec slices tuples = function
            | [] -> tuples = []
            | (_, n) :: rest ->
                let rec take k acc rem =
                  if k = 0 then (List.rev acc, rem)
                  else
                    match rem with
                    | [] -> (List.rev acc, [])
                    | x :: xs -> take (k - 1) (x :: acc) xs
                in
                let block, rem = take n [] tuples in
                List.length block = n && slices rem rest
          in
          slices all (Partition.shard_layout p)
          && List.concat
               (List.map
                  (fun i -> Partition.shard_tuples p i)
                  (List.init (Partition.shard_count p) Fun.id))
             |> multiset = multiset all))

let split_respects_threshold =
  QCheck2.Test.make ~name:"flush: splits keep results intact" ~count:80
    ~print:print_case gen_case
    (fun (data, boundaries, window) ->
      with_partition ~split_threshold:4 ~boundaries data (fun p ->
          input_multiset data = multiset (Trel.tuples (Partition.materialize p))
          && count_matches p window data))

let repartition_preserves =
  QCheck2.Test.make ~name:"repartition: contents and timelines survive"
    ~count:80
    ~print:(fun (case, bs) ->
      Printf.sprintf "%s then [%s]" (print_case case)
        (String.concat "," (List.map string_of_int bs)))
    QCheck2.Gen.(pair gen_case gen_boundaries)
    (fun ((data, boundaries, window), boundaries') ->
      with_partition ~boundaries data (fun p ->
          Partition.repartition p boundaries';
          Partition.boundaries p = boundaries'
          && input_multiset data = multiset (Trel.tuples (Partition.materialize p))
          && count_matches p window data))

let load_roundtrip =
  QCheck2.Test.make ~name:"load: layout and tuples survive reopen" ~count:60
    ~print:print_case gen_case
    (fun (data, boundaries, _) ->
      with_partition ~boundaries data (fun p ->
          let q = Partition.load (Partition.dir p) in
          Partition.boundaries q = Partition.boundaries p
          && Partition.shard_layout q = Partition.shard_layout p
          && multiset (Trel.tuples (Partition.materialize q))
             = multiset (Trel.tuples (Partition.materialize p))))

let choose_boundaries_well_formed =
  QCheck2.Test.make ~name:"choose_boundaries: sorted, in range, bounded"
    ~count:200
    ~print:(fun (shards, sample) ->
      Printf.sprintf "shards=%d sample=[%s]" shards
        (String.concat "," (List.map string_of_int sample)))
    QCheck2.Gen.(
      pair (int_range 1 10) (list_size (int_bound 60) (int_bound (max_time - 1))))
    (fun (shards, sample) ->
      let bs =
        Partition.choose_boundaries ~shards ~lifespan:(0, max_time - 1) sample
      in
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
        | _ -> true
      in
      strictly_increasing bs
      && List.length bs <= shards - 1
      && List.for_all (fun b -> b > 0 && b <= max_time - 1) bs)

(* ------------------------------------------------------------------ *)
(* Faults: per-shard failure, skip, retry and the parallel fallback    *)
(* ------------------------------------------------------------------ *)

let spread_data n =
  List.init n (fun i -> (iv (i * 4 mod max_time) ((i * 4 mod max_time) + 3), i + 1))

(* Transient read faults on every page: the heap layer's bounded retry
   absorbs all of them, so the partition still reads back whole. *)
let test_transient_faults_recovered () =
  let fault = Fault.create ~transient:1.0 () in
  let data = spread_data 120 in
  with_partition ~fault ~boundaries:[ 50; 100; 150 ] data (fun p ->
      Alcotest.(check bool)
        "tuples survive" true
        (input_multiset data = multiset (Trel.tuples (Partition.materialize p)));
      let io = Partition.io_totals p in
      Alcotest.(check bool) "retries recorded" true (io.Io_stats.retries > 0))

(* Corrupt one shard's file on disk: that shard fails alone under
   [`Fail], reads as a subset under [`Skip], and its siblings are
   untouched either way. *)
let test_corrupt_shard_is_isolated () =
  let data = spread_data 120 in
  with_partition ~boundaries:[ 50; 100; 150 ] data (fun p ->
      let victim = List.hd (Partition.shard_infos p) in
      let path =
        Filename.concat (Partition.dir p) victim.Partition.si_file
      in
      (* Flip a byte inside the first data page, past the header page. *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd 8200 Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd 8200 Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      Alcotest.(check bool) "corrupt shard fails" true
        (match Partition.shard_tuples p victim.Partition.si_index with
        | _ -> false
        | exception Heap_file.Corrupt_page _ -> true);
      Alcotest.(check bool) "sibling shard unaffected" true
        (match Partition.shard_tuples p (victim.Partition.si_index + 1) with
        | tuples -> tuples <> []
        | exception Heap_file.Corrupt_page _ -> false);
      let skipped = Partition.shard_tuples ~on_corrupt:`Skip p
          victim.Partition.si_index in
      Alcotest.(check bool) "skip drops only the bad page" true
        (List.length skipped < victim.Partition.si_cardinality);
      let rel = Partition.materialize ~on_corrupt:`Skip p in
      Alcotest.(check bool) "materialize skips, others whole" true
        (Trel.cardinality rel
         = List.length data
           - (victim.Partition.si_cardinality - List.length skipped)))

(* The shard-parallel fallback: pin evaluation shards to storage joints,
   make one shard's k-ordered tree blow up (k = 0 over misordered
   tuples), and the robust engine must re-evaluate just that shard with
   the order-oblivious tree — right answer, degradation recorded. *)
let test_failed_shard_falls_back () =
  (* Shard 2 receives starts 60, 70, 55, 90 in that order: with k = 0
     the tree's frontier reaches 60 before 55 arrives, a hard order
     violation.  Shard 1 stays sorted and must not be re-evaluated. *)
  let data =
    [
      (iv 0 5, 1);
      (iv 60 80, 2);
      (iv 10 20, 3);
      (iv 70 90, 4);
      (iv 55 65, 5);
      (iv 90 99, 6);
    ]
  in
  with_partition ~boundaries:[ 50 ] data (fun p ->
      let keep = Partition.prune p None in
      let blocks =
        List.map
          (fun i ->
            List.map
              (fun t -> (Tuple.valid t, value_of t))
              (Partition.shard_tuples p i))
          keep
      in
      let offsets = Array.make (List.length blocks + 1) 0 in
      List.iteri
        (fun i b -> offsets.(i + 1) <- offsets.(i) + List.length b)
        blocks;
      let expected = Tempagg.Reference.eval Tempagg.Monoid.count data in
      match
        Tempagg.Engine.eval_robust ~shard_offsets:offsets
          (Tempagg.Engine.Parallel
             {
               domains = List.length blocks;
               inner = Tempagg.Engine.Korder_tree { k = 0 };
             })
          Tempagg.Monoid.count
          (List.to_seq (List.concat blocks))
      with
      | Error e -> Alcotest.fail (Tempagg.Engine.error_to_string e)
      | Ok (tl, degradations) ->
          Alcotest.(check bool) "timeline correct" true
            (Timeline.equal Int.equal expected tl);
          Alcotest.(check bool) "shard degradation recorded" true
            (degradations <> []))

let test_bad_boundaries_rejected () =
  let dir = Filename.temp_file "tempagg_part" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      List.iter
        (fun bs ->
          Alcotest.(check bool)
            (Printf.sprintf "[%s] rejected"
               (String.concat "," (List.map string_of_int bs)))
            true
            (match Partition.create ~boundaries:bs ~dir schema with
            | _ -> false
            | exception Invalid_argument _ -> true))
        [ [ 10; 10 ]; [ 20; 10 ]; [ 0 ]; [ -5 ] ])

let test_prune_uses_extents () =
  (* Shard extents: 0 -> [0,5]; 1 (owns [50,100)) -> [50,130] via the
     overhanging tuple; 2 (owns [100,150)) empty -> its owned range,
     conservatively; 3 -> [150,199]. *)
  let data = [ (iv 0 5, 1); (iv 90 130, 3); (iv 150 199, 2) ] in
  with_partition ~boundaries:[ 50; 100; 150 ] data (fun p ->
      Alcotest.(check (list int)) "gap window prunes everything" []
        (Partition.prune p (Some (iv 10 40)));
      (* [90,130] starts in shard 1, so shard 1's extent reaches 130: a
         window inside shard 2's owned range must still scan shard 1
         (the overhang-soundness case) along with the empty shard 2. *)
      Alcotest.(check (list int)) "overhang keeps the owning shard"
        [ 1; 2 ]
        (Partition.prune p (Some (iv 110 120)));
      Alcotest.(check int) "all kept without a window" 4
        (List.length (Partition.prune p None)))

(* ------------------------------------------------------------------ *)
(* Sharded plans over an in-memory layout                              *)
(* ------------------------------------------------------------------ *)

(* [shards] shards of [per_shard] tuples each, shard i spanning
   [1000i, 1000i + 999], in random order within each shard. *)
let layout_catalog ~shards ~per_shard =
  let rng = Random.State.make [| shards; per_shard |] in
  let tuples =
    Array.init (shards * per_shard) (fun k ->
        let base = k / per_shard * 1000 in
        let s = base + Random.State.int rng 1000 in
        tuple_of
          ( iv s (min (base + 999) (s + Random.State.int rng 40)),
            1 + Random.State.int rng 100 ))
  in
  Tsql.Catalog.with_layout
    (Tsql.Catalog.add (Tsql.Catalog.create ()) "r" (Trel.of_array schema tuples))
    "r"
    (List.init shards (fun i -> (iv (i * 1000) ((i * 1000) + 999), per_shard)))

let plan_of catalog text =
  match Result.bind (Tsql.Parser.parse text) (Tsql.Eval.plan catalog) with
  | Ok plan -> plan
  | Error e -> Alcotest.failf "%s: %s" text e

(* A window over two shards plans parallel(2, sweep).  No inner
   algorithm of it can fail without a budget, so it keeps FAIL and runs
   on the plain engine path: no recovery attempt is recorded. *)
let test_two_shard_plan_keeps_fail () =
  let catalog = layout_catalog ~shards:4 ~per_shard:1000 in
  let text = "SELECT COUNT(v) FROM r DURING [900,1100]" in
  let plan = plan_of catalog text in
  Alcotest.(check string) "algorithm" "parallel(2,sweep)"
    (Tempagg.Engine.name plan.Tsql.Semant.algorithm);
  Alcotest.(check bool) "on error FAIL" true
    (plan.Tsql.Semant.on_error = Tempagg.Engine.Fail);
  (match Tsql.Eval.explain catalog text with
  | Ok text ->
      Alcotest.(check bool) "no on-error suffix" false
        (contains_sub text "on error")
  | Error e -> Alcotest.fail e);
  Obs.Trace.clear ();
  (match Tsql.Eval.execute catalog plan with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "no attempt span" []
    (List.filter_map
       (fun (sp : Obs.Trace.span) ->
         if sp.Obs.Trace.label = "attempt" then Some sp.Obs.Trace.label
         else None)
       (Obs.Trace.recorded ()))

(* Minor words allocated by planning and executing [text] (after one
   warm-up run). *)
let words_per_read catalog text =
  let q =
    match Tsql.Parser.parse text with
    | Ok q -> q
    | Error e -> Alcotest.failf "%s: %s" text e
  in
  let run () =
    match Result.bind (Tsql.Eval.plan catalog q) (Tsql.Eval.execute catalog) with
    | Ok report -> ignore (Sys.opaque_identity report)
    | Error e -> Alcotest.failf "%s: %s" text e
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  Gc.minor_words () -. before

(* A read whose window keeps one shard costs what that shard costs:
   the same read over four times the shards (and tuples) allocates
   nearly the same, for a plain window and for span grouping alike. *)
let test_pruned_read_allocation () =
  let small = layout_catalog ~shards:16 ~per_shard:1000
  and large = layout_catalog ~shards:64 ~per_shard:1000 in
  List.iter
    (fun text ->
      let w16 = words_per_read small text and w64 = words_per_read large text in
      if w64 >= 1.5 *. w16 then
        Alcotest.failf "%s: %.0f words over 64 shards, %.0f over 16 (bar: < 1.5x)"
          text w64 w16)
    [
      "SELECT COUNT(v) FROM r DURING [5200,5499]";
      "SELECT AVG(v) FROM r DURING [5100,5899] GROUP BY SPAN 100";
    ]

let quick name f = Alcotest.test_case name `Quick f
let prop = QCheck_alcotest.to_alcotest ~long:false

let () =
  (* Some cases route through [Engine.Parallel]'s domains; keep the
     fault seed stable regardless of the environment. *)
  Alcotest.run "partition"
    [
      ( "sharded-vs-single",
        [ count_sharded; sum_sharded; min_sharded; max_sharded; avg_sharded ]
      );
      ( "invariants",
        List.map prop
          [
            materialize_preserves_tuples;
            contiguous_slices;
            split_respects_threshold;
            repartition_preserves;
            load_roundtrip;
            choose_boundaries_well_formed;
          ] );
      ( "sharded-plans",
        [
          quick "two-shard plan keeps FAIL" test_two_shard_plan_keeps_fail;
          quick "pruned read allocates per kept shard"
            test_pruned_read_allocation;
        ] );
      ( "faults",
        [
          quick "transient faults recovered by retry"
            test_transient_faults_recovered;
          quick "corrupt shard fails alone; skip drops only it"
            test_corrupt_shard_is_isolated;
          quick "failed shard falls back without aborting"
            test_failed_shard_falls_back;
          quick "bad boundaries rejected" test_bad_boundaries_rejected;
          quick "pruning uses extents, overhang included"
            test_prune_uses_extents;
        ] );
    ]
