(* Reproduction harness for every table and figure in "Computing Temporal
   Aggregates" (Kline & Snodgrass, ICDE 1995), plus the ablations called
   out in DESIGN.md.

     dune exec bench/main.exe                 # default: scaled-down sweep
     dune exec bench/main.exe -- --full       # paper-scale (1K..64K, slow)
     dune exec bench/main.exe -- --sections fig6,fig9
     dune exec bench/main.exe -- --csv out    # also write CSV series
     dune exec bench/main.exe -- --help

   Sections: table1 table2 table3 fig6 fig7 fig8 fig9 fig9_longlived
   sweep live optimizer guard obs adaptive ablation_balanced
   ablation_span ablation_unique ablation_paged ablation_pagerand
   storage_io shard join net selfmon micro.  The obs section also writes BENCH_trace.json
   (Chrome trace_event, loads in Perfetto) and BENCH_metrics.txt
   (Prometheus exposition) next to the --json output when one is
   requested.

   --smoke shrinks every size for CI (seconds, not minutes); --json PATH
   writes every measured point, plus run-identity metadata (git sha,
   timestamp, sizes), as machine-readable JSON.  --compare OLD.json
   checks this run's points against a previous file and exits non-zero
   when any regresses past --compare-threshold percent (default 10);
   --compare-only compares two existing files (--json NEW --compare OLD)
   without running anything.

   Absolute numbers differ from the paper's 1995 SPARCstation, but the
   shapes it reports are checked and recorded in EXPERIMENTS.md: who
   wins, by what factor, and where the curves bend.  By default the
   O(n^2) cases (the linked list everywhere; the aggregation tree on
   sorted input) are capped at --cap-quadratic tuples so the run
   finishes quickly. *)

open Temporal

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  max_size : int;
  cap_quadratic : int;
  repeats : int;
  sections : string list option;
  csv_dir : string option;
  smoke : bool;
  json : string option;
  compare_with : string option;
  compare_only : bool;
  compare_threshold : float;
}

let default_config =
  {
    max_size = 16_384;
    cap_quadratic = 8_192;
    repeats = 2;
    sections = None;
    csv_dir = None;
    smoke = false;
    json = None;
    compare_with = None;
    compare_only = false;
    compare_threshold = 10.;
  }

let usage () =
  print_endline
    "usage: main.exe [--full] [--smoke] [--max-size N] [--cap-quadratic N] \
     [--repeats N] [--sections a,b,c] [--csv DIR] [--json PATH] \
     [--compare OLD.json] [--compare-only] [--compare-threshold PCT]";
  exit 0

let parse_args () =
  let cfg = ref default_config in
  let rec go = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ -> usage ()
    | "--full" :: rest ->
        cfg :=
          { !cfg with max_size = 65_536; cap_quadratic = 65_536; repeats = 3 };
        go rest
    | "--smoke" :: rest ->
        cfg :=
          {
            !cfg with
            max_size = 1_024;
            cap_quadratic = 512;
            repeats = 1;
            smoke = true;
          };
        go rest
    | "--json" :: path :: rest ->
        cfg := { !cfg with json = Some path };
        go rest
    | "--max-size" :: n :: rest ->
        cfg := { !cfg with max_size = int_of_string n };
        go rest
    | "--cap-quadratic" :: n :: rest ->
        cfg := { !cfg with cap_quadratic = int_of_string n };
        go rest
    | "--repeats" :: n :: rest ->
        cfg := { !cfg with repeats = int_of_string n };
        go rest
    | "--sections" :: s :: rest ->
        cfg := { !cfg with sections = Some (String.split_on_char ',' s) };
        go rest
    | "--csv" :: dir :: rest ->
        cfg := { !cfg with csv_dir = Some dir };
        go rest
    | "--compare" :: path :: rest ->
        cfg := { !cfg with compare_with = Some path };
        go rest
    | "--compare-only" :: rest ->
        cfg := { !cfg with compare_only = true };
        go rest
    | "--compare-threshold" :: pct :: rest ->
        cfg := { !cfg with compare_threshold = float_of_string pct };
        go rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  !cfg

let enabled cfg name =
  match cfg.sections with None -> true | Some l -> List.mem name l

let banner name title =
  Printf.printf
    "\n==============================================================\n";
  Printf.printf "%s: %s\n" name title;
  Printf.printf
    "==============================================================\n%!"

(* [Sys.mkdir] only creates the last component, so "--csv out/run1"
   needs the parents made first.  The guard tolerates a concurrent
   creator racing us between the existence check and the mkdir. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json)                                    *)
(* ------------------------------------------------------------------ *)

(* One record per measured point, accumulated across sections and
   written as one JSON array at exit.  Hand-rolled writer: this is the
   only JSON the project emits, and the values are flat. *)
type json_record = {
  jr_section : string;
  jr_name : string;
  jr_n : int;
  jr_algorithm : string;
  jr_median_ns : float option;  (* time points *)
  jr_allocs : float option;  (* memory points: 16B-node-model bytes *)
}

let json_records : json_record list ref = ref []

(* Allocation notes for time points: (section, series, n) -> 16B-node-
   model bytes captured by one instrumented evaluation next to the
   timing loop, so time rows in --json carry a real "allocs" value
   instead of null.  Sections whose work has no node model (the live
   trace replay, end-to-end TSQL planning) still emit null. *)
let alloc_notes : (string * string * int, float) Hashtbl.t = Hashtbl.create 256

let note_allocs ~section ~name ~n bytes =
  Hashtbl.replace alloc_notes (section, name, n) bytes

let record_point ~section ~name ~n ~algorithm ?median_ns ?allocs () =
  json_records :=
    {
      jr_section = section;
      jr_name = name;
      jr_n = n;
      jr_algorithm = algorithm;
      jr_median_ns = median_ns;
      jr_allocs = allocs;
    }
    :: !json_records

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_number v =
  (* JSON has no infinities or NaN; clamp the pathological cases. *)
  if Float.is_nan v || Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

(* Run identity, stamped into the JSON so two result files can be told
   apart (and compared) after the fact. *)
let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let meta_to_string cfg =
  Printf.sprintf
    "{\"git_sha\": \"%s\", \"timestamp\": \"%s\", \"n\": %d, \"domains\": \
     %d, \"smoke\": %b, \"sections\": \"%s\"}"
    (json_escape (git_sha ()))
    (iso8601 (Unix.gettimeofday ()))
    cfg.max_size
    (Domain.recommended_domain_count ())
    cfg.smoke
    (json_escape
       (match cfg.sections with
       | None -> "all"
       | Some l -> String.concat "," l))

let write_json cfg =
  match cfg.json with
  | None -> ()
  | Some path ->
      let dir = Filename.dirname path in
      if dir <> "." then mkdir_p dir;
      let record_to_string r =
        let opt = function None -> "null" | Some v -> json_number v in
        Printf.sprintf
          "  {\"section\": \"%s\", \"name\": \"%s\", \"n\": %d, \
           \"algorithm\": \"%s\", \"median_ns\": %s, \"allocs\": %s}"
          (json_escape r.jr_section) (json_escape r.jr_name) r.jr_n
          (json_escape r.jr_algorithm) (opt r.jr_median_ns) (opt r.jr_allocs)
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc "{\"meta\": ";
          output_string oc (meta_to_string cfg);
          output_string oc ",\n \"results\": [\n";
          output_string oc
            (String.concat ",\n"
               (List.rev_map record_to_string !json_records));
          output_string oc "\n]}\n");
      Printf.printf "(json written to %s: %d records)\n" path
        (List.length !json_records)

(* ------------------------------------------------------------------ *)
(* Result comparison (--compare)                                        *)
(* ------------------------------------------------------------------ *)

(* Reads a results file back into (section, name, n, algorithm) ->
   median_ns.  The scanner only understands the flat one-record-per-line
   layout this harness writes (both the current {"meta":..,"results":[..]}
   shape and the older bare array), which keeps it dependency-free: any
   line carrying a "section" field is a record, and fields are extracted
   by key. *)
let scan_string_field line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let plen = String.length pat and llen = String.length line in
  let rec find i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
      match String.index_from_opt line start '"' with
      | None -> None
      | Some stop -> Some (String.sub line start (stop - start)))

let scan_number_field line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let plen = String.length pat and llen = String.length line in
  let rec find i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while
        !stop < llen
        && (match line.[!stop] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr stop
      done;
      if !stop = start then None
      else float_of_string_opt (String.sub line start (!stop - start))

let load_results path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match scan_string_field line "section" with
      | None -> ()
      | Some section -> (
          match
            ( scan_string_field line "name",
              scan_number_field line "n",
              scan_string_field line "algorithm" )
          with
          | Some name, Some n, Some algorithm ->
              Hashtbl.replace tbl
                (section, name, int_of_float n, algorithm)
                (scan_number_field line "median_ns")
          | _ -> ()))
    (String.split_on_char '\n' text);
  tbl

(* Compares this run's records (or a second file) against a previous
   results file: per-section counts and worst delta, every point past
   the threshold listed, and the number of regressions returned so main
   can turn it into the exit code. *)
let compare_results ~threshold ~old_path new_records =
  let old_tbl = load_results old_path in
  Printf.printf
    "\n==============================================================\n";
  Printf.printf "compare: this run vs %s (threshold %.1f%%)\n" old_path
    threshold;
  Printf.printf
    "==============================================================\n";
  let per_section : (string, int * int * float * string) Hashtbl.t =
    Hashtbl.create 16
  in
  let regressions = ref 0 and matched = ref 0 in
  List.iter
    (fun (((section, name, n, algorithm) as key), new_ns) ->
      match (new_ns, Hashtbl.find_opt old_tbl key) with
      | Some new_ns, Some (Some old_ns) when old_ns > 0. ->
          incr matched;
          let delta = (new_ns -. old_ns) /. old_ns *. 100. in
          let cnt, reg, worst, worst_what =
            Option.value
              (Hashtbl.find_opt per_section section)
              ~default:(0, 0, neg_infinity, "")
          in
          let what = Printf.sprintf "%s/%s n=%d" name algorithm n in
          let is_reg = delta > threshold in
          if is_reg then begin
            incr regressions;
            Printf.printf "  REGRESSION %-12s %-40s %+8.1f%%\n" section what
              delta
          end;
          Hashtbl.replace per_section section
            ( cnt + 1,
              (reg + if is_reg then 1 else 0),
              Float.max worst delta,
              (if delta > worst then what else worst_what) )
      | _ -> ())
    new_records;
  let sections =
    List.sort_uniq compare
      (Hashtbl.fold (fun s _ acc -> s :: acc) per_section [])
  in
  Report.Table.print
    ~headers:[ "section"; "points"; "regressions"; "worst delta"; "at" ]
    (List.map
       (fun s ->
         let cnt, reg, worst, what = Hashtbl.find per_section s in
         [
           s;
           string_of_int cnt;
           string_of_int reg;
           Printf.sprintf "%+.1f%%" worst;
           what;
         ])
       sections);
  Printf.printf
    "%d comparable point(s); %d regression(s) past %.1f%% (negative deltas \
     are improvements)\n"
    !matched !regressions threshold;
  if !matched = 0 then
    print_endline
      "warning: no comparable points — sections, sizes or names differ \
       between the two runs";
  !regressions

(* Saves a series as CSV (under --csv) and records every point for
   --json.  [kind] says what the series' floats are: seconds (recorded
   as median_ns) or bytes (recorded as allocs). *)
let save_csv ?(kind = `Seconds) ?(record = true) cfg name series =
  if record then
    List.iter
      (fun sname ->
        List.iter
          (fun x ->
            match Report.Series.get series ~x ~series:sname with
            | None -> ()
            | Some v ->
                let median_ns, allocs =
                  match kind with
                  | `Seconds ->
                      ( Some (v *. 1e9),
                        Hashtbl.find_opt alloc_notes (name, sname, x) )
                  | `Bytes -> (None, Some v)
                in
                record_point ~section:name ~name:sname ~n:x ~algorithm:sname
                  ?median_ns ?allocs ())
          (Report.Series.x_values series))
      (Report.Series.series_names series);
  match cfg.csv_dir with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      let path = Filename.concat dir (name ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Report.Series.to_csv series));
      Printf.printf "(csv written to %s)\n" path

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* CPU seconds per evaluation; repeats the run until at least 0.1s has
   accumulated so that fast points are still resolvable. *)
let time_run f =
  let rec go reps =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Sys.time () -. t0 in
    if dt >= 0.1 || reps >= 4096 then dt /. float_of_int reps else go (reps * 2)
  in
  go 1

let sizes cfg =
  List.filter (fun n -> n <= cfg.max_size) Workload.Spec.table3_sizes

(* Least-squares slope of log t against log n — the empirical complexity
   exponent of a series. *)
let log_slope points =
  match points with
  | _ :: _ :: _ ->
      let xs = List.map (fun (n, _) -> log (float_of_int n)) points in
      let ys = List.map (fun (_, t) -> log t) points in
      let k = float_of_int (List.length points) in
      let sx = List.fold_left ( +. ) 0. xs
      and sy = List.fold_left ( +. ) 0. ys in
      let sxx = List.fold_left (fun a x -> a +. (x *. x)) 0. xs in
      let sxy = List.fold_left2 (fun a x y -> a +. (x *. y)) 0. xs ys in
      Some (((k *. sxy) -. (sx *. sy)) /. ((k *. sxx) -. (sx *. sx)))
  | _ -> None

let slope_note series name =
  let points =
    List.filter_map
      (fun x ->
        Option.map (fun t -> (x, t)) (Report.Series.get series ~x ~series:name))
      (Report.Series.x_values series)
  in
  match log_slope (List.filter (fun (_, t) -> t > 0.) points) with
  | Some s -> Printf.printf "  empirical complexity %-28s ~ n^%.2f\n" name s
  | None -> ()

let ratio_note series a b =
  let xs =
    List.filter
      (fun x ->
        Option.is_some (Report.Series.get series ~x ~series:a)
        && Option.is_some (Report.Series.get series ~x ~series:b))
      (Report.Series.x_values series)
  in
  match List.rev xs with
  | x :: _ ->
      let va = Option.get (Report.Series.get series ~x ~series:a) in
      let vb = Option.get (Report.Series.get series ~x ~series:b) in
      if vb > 0. then
        Printf.printf "  %s / %s at n=%d: %.1fx\n" a b x (va /. vb)
  | [] -> ()

(* Workload construction shared across figures. *)

let spec ~n ~long ~seed =
  Workload.Spec.make ~n ~long_lived_fraction:long ~seed ()

let count_data arr = Array.to_seq (Array.map (fun (iv, _) -> (iv, ())) arr)

let eval_time algorithm arr =
  time_run (fun () ->
      Tempagg.Engine.eval algorithm Tempagg.Monoid.count (count_data arr))

let eval_bytes algorithm arr =
  let _, stats =
    Tempagg.Engine.eval_with_stats algorithm Tempagg.Monoid.count
      (count_data arr)
  in
  float_of_int stats.Tempagg.Instrument.peak_bytes

(* Record a time point and its allocations in one go: the timing loop
   stays uninstrumented (comparable with earlier result files), and one
   extra instrumented evaluation supplies the bytes for the JSON row. *)
let eval_timed ~section ~n add name algorithm arr =
  add name (eval_time algorithm arr);
  note_allocs ~section ~name ~n (eval_bytes algorithm arr)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  banner "table1" "COUNT over the Employed relation (paper Table 1)";
  let catalog = Tsql.Catalog.with_builtins () in
  print_endline "SELECT COUNT(Name) FROM Employed";
  (match Tsql.Eval.query catalog "SELECT COUNT(Name) FROM Employed" with
  | Ok result -> Tsql.Pretty.print_result result
  | Error msg -> prerr_endline msg);
  print_endline
    "paper: [0,6]:0 [7,7]:1 [8,12]:2 [13,17]:1 [18,20]:3 [21,21]:2 [22,oo]:1"

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  banner "table2"
    "k-ordered-percentage examples, n=10000 k=100 (paper Table 2)";
  let n = 10_000 and k = 100 in
  let sorted = Array.init n Fun.id in
  let pct a = Ordering.Korder.percentage ~compare:Int.compare ~k a in
  let rows =
    [
      ("the tuples are sorted", sorted);
      ( "2 tuples 100 places apart are swapped",
        Ordering.Perturb.realize_displacements [ (100, 2) ] sorted );
      ( "20 tuples are 100 places from being sorted",
        Ordering.Perturb.realize_displacements [ (100, 20) ] sorted );
      ( "1 tuple i places out of order, for each i=1..100",
        Ordering.Perturb.realize_displacements
          (List.init 100 (fun i -> (i + 1, 1)))
          sorted );
      ( "10 tuples i places out of order, for each i=1..100",
        Ordering.Perturb.realize_displacements
          (List.init 100 (fun i -> (i + 1, 10)))
          sorted );
    ]
  in
  Report.Table.print
    ~headers:[ "k-ordered-percentage"; "explanation" ]
    (List.map (fun (expl, a) -> [ Printf.sprintf "%.5g" (pct a); expl ]) rows);
  print_endline "paper: 0, 0.0002, 0.002, 0.00505, 0.0505"

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let table3 cfg =
  banner "table3" "test parameters (paper Table 3)";
  Report.Table.print
    ~headers:[ "parameter"; "paper values"; "this run" ]
    [
      [ "k-ordered-percentage"; "0.02, 0.08, 0.14"; "same" ];
      [ "long-lived tuples"; "0%, 40%, 80%"; "same" ];
      [
        "relation size (tuples)";
        "1K..64K";
        Printf.sprintf "1K..%dK (quadratic algorithms capped at %dK)"
          (cfg.max_size / 1024) (cfg.cap_quadratic / 1024);
      ];
      [ "relation lifespan"; "1M instants"; "same" ];
      [ "short-lived duration"; "1..1000 instants"; "same" ];
      [ "long-lived duration"; "20%..80% of lifespan"; "same" ];
      [ "k (Figures 7-9)"; "4, 40, 400"; "same" ];
      [ "seeds per point"; "several"; Printf.sprintf "%d" cfg.repeats ];
    ]

(* ------------------------------------------------------------------ *)
(* Figure 6: time on unordered relations                               *)
(* ------------------------------------------------------------------ *)

(* Accumulates a mean over seeds incrementally. *)
let add_mean cfg series ~x ~name v =
  let prev =
    Option.value (Report.Series.get series ~x ~series:name) ~default:0.
  in
  Report.Series.add series ~x ~series:name
    (prev +. (v /. float_of_int cfg.repeats))

let fig6 cfg =
  banner "fig6" "CPU time on randomly ordered relations (paper Figure 6)";
  let series =
    Report.Series.create ~title:"Figure 6" ~x_label:"tuples"
      ~unit_label:"seconds per evaluation"
  in
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let add name v = add_mean cfg series ~x:n ~name v in
          let timed = eval_timed ~section:"fig6" ~n add in
          let full_walk_timed name data =
            add name
              (time_run (fun () ->
                   Tempagg.Linked_list.eval ~full_walk:true
                     Tempagg.Monoid.count (count_data data)));
            let inst = Tempagg.Instrument.create () in
            ignore
              (Tempagg.Linked_list.eval ~instrument:inst ~full_walk:true
                 Tempagg.Monoid.count (count_data data));
            note_allocs ~section:"fig6" ~name ~n
              (float_of_int (Tempagg.Instrument.peak_bytes inst))
          in
          List.iter
            (fun long ->
              let data =
                Workload.Generate.random_intervals (spec ~n ~long ~seed)
              in
              timed
                (Printf.sprintf "tree %.0f%%" (long *. 100.))
                Tempagg.Engine.Aggregation_tree data;
              if long = 0. then begin
                if n <= cfg.cap_quadratic then begin
                  timed "linked-list" Tempagg.Engine.Linked_list data;
                  full_walk_timed "list full-walk" data
                end;
                timed "two-scan (prior work)" Tempagg.Engine.Two_scan data;
                timed "balanced (ext)" Tempagg.Engine.Balanced_tree data
              end;
              if long = 0.8 && n <= cfg.cap_quadratic then begin
                timed "linked-list 80%" Tempagg.Engine.Linked_list data;
                (* The paper's full-walk list variant is insensitive to
                   long-lived tuples; measure it for the fidelity note. *)
                full_walk_timed "list full-walk 80%" data
              end)
            Workload.Spec.table3_long_lived)
        (List.init cfg.repeats (fun i -> i + 1)))
    (sizes cfg);
  Report.Series.print series;
  save_csv cfg "fig6" series;
  print_endline
    "shape checks (paper: linked list up to ~300x slower at 64K; tree and \
     list insensitive to long-lived %):";
  ratio_note series "linked-list" "tree 0%";
  ratio_note series "linked-list 80%" "linked-list";
  ratio_note series "list full-walk 80%" "list full-walk";
  ratio_note series "tree 80%" "tree 0%";
  slope_note series "tree 0%";
  slope_note series "linked-list"

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: time on (almost) ordered relations                 *)
(* ------------------------------------------------------------------ *)

let fig_ordered cfg ~name ~long ~paper_note =
  banner name
    (Printf.sprintf
       "CPU time on ordered/k-ordered relations, %.0f%% long-lived (paper %s)"
       (long *. 100.)
       (if name = "fig7" then "Figure 7" else "Figure 8"));
  let series =
    Report.Series.create ~title:name ~x_label:"tuples"
      ~unit_label:"seconds per evaluation"
  in
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let add nm v = add_mean cfg series ~x:n ~name:nm v in
          let timed = eval_timed ~section:name ~n add in
          let sp = spec ~n ~long ~seed in
          let sorted = Workload.Generate.sorted_intervals sp in
          if n <= cfg.cap_quadratic then begin
            timed "linked-list" Tempagg.Engine.Linked_list sorted;
            timed "tree (sorted)" Tempagg.Engine.Aggregation_tree sorted
          end;
          timed "ktree k=1 (sorted)"
            (Tempagg.Engine.Korder_tree { k = 1 })
            sorted;
          List.iter
            (fun k ->
              if k < n then
                let data =
                  Workload.Generate.k_ordered_intervals ~k ~percentage:0.02 sp
                in
                timed
                  (Printf.sprintf "ktree k=%d" k)
                  (Tempagg.Engine.Korder_tree { k })
                  data)
            Workload.Spec.table3_k)
        (List.init cfg.repeats (fun i -> i + 1)))
    (sizes cfg);
  Report.Series.print series;
  save_csv cfg name series;
  Printf.printf "shape checks (paper: %s):\n" paper_note;
  ratio_note series "tree (sorted)" "ktree k=1 (sorted)";
  ratio_note series "linked-list" "ktree k=1 (sorted)";
  ratio_note series "ktree k=400" "ktree k=4";
  slope_note series "tree (sorted)";
  slope_note series "ktree k=1 (sorted)"

let fig7 cfg =
  fig_ordered cfg ~name:"fig7" ~long:0.
    ~paper_note:
      "plain tree degenerates towards O(n^2); smaller k is faster; ktree \
       k=1 on sorted input is best"

let fig8 cfg =
  fig_ordered cfg ~name:"fig8" ~long:0.8
    ~paper_note:
      "long-lived tuples slow the ktree (end-time nodes live longer before \
       gc), leave the linked list unchanged, and make the plain tree \
       bushier (faster than its 0%-long-lived sorted worst case)"

(* ------------------------------------------------------------------ *)
(* Figure 9: memory                                                    *)
(* ------------------------------------------------------------------ *)

let fig_memory cfg ~name ~long ~paper_note =
  banner name
    (Printf.sprintf "peak algorithm memory, %.0f%% long-lived (paper %s)"
       (long *. 100.)
       (if name = "fig9" then "Figure 9" else "Section 6.2 prose"));
  let series =
    Report.Series.create ~title:name ~x_label:"tuples"
      ~unit_label:"peak bytes of algorithm state (16B/node model)"
  in
  List.iter
    (fun n ->
      let sp = spec ~n ~long ~seed:1 in
      let sorted = Workload.Generate.sorted_intervals sp in
      let add nm v = Report.Series.add series ~x:n ~series:nm v in
      if n <= cfg.cap_quadratic then
        add "linked-list" (eval_bytes Tempagg.Engine.Linked_list sorted);
      let random = Workload.Generate.random_intervals sp in
      add "tree" (eval_bytes Tempagg.Engine.Aggregation_tree random);
      add "ktree k=1 (sorted)"
        (eval_bytes (Tempagg.Engine.Korder_tree { k = 1 }) sorted);
      List.iter
        (fun k ->
          if k < n then
            let data =
              Workload.Generate.k_ordered_intervals ~k ~percentage:0.02 sp
            in
            add
              (Printf.sprintf "ktree k=%d" k)
              (eval_bytes (Tempagg.Engine.Korder_tree { k }) data))
        Workload.Spec.table3_k)
    (sizes cfg);
  Report.Series.print series;
  save_csv ~kind:`Bytes cfg name series;
  Printf.printf "shape checks (paper: %s):\n" paper_note;
  ratio_note series "tree" "linked-list";
  ratio_note series "tree" "ktree k=1 (sorted)";
  ratio_note series "ktree k=400" "ktree k=4"

let fig9 cfg =
  fig_memory cfg ~name:"fig9" ~long:0.
    ~paper_note:
      "tree needs the most memory (2 nodes per unique timestamp); smaller \
       k collects sooner; ktree k=1 on sorted input is minimal"

let fig9_longlived cfg =
  fig_memory cfg ~name:"fig9_longlived" ~long:0.8
    ~paper_note:
      "long-lived tuples leave list and tree memory unchanged but inflate \
       the k-ordered tree (end-time nodes stay uncollected much longer)"

(* ------------------------------------------------------------------ *)
(* Sweep: flat delta-sweep and divide-and-conquer over domains         *)
(* ------------------------------------------------------------------ *)

let sweep_bench cfg =
  banner "sweep"
    "flat delta-sweep vs the 1995 trees; divide-and-conquer over domains";
  let series =
    Report.Series.create ~title:"sweep" ~x_label:"tuples"
      ~unit_label:"seconds per evaluation"
  in
  let ns = match sizes cfg with [] -> [ cfg.max_size ] | l -> l in
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let add nm v = add_mean cfg series ~x:n ~name:nm v in
          let timed = eval_timed ~section:"sweep" ~n add in
          let sp = spec ~n ~long:0. ~seed in
          let random = Workload.Generate.random_intervals sp in
          let sorted = Workload.Generate.sorted_intervals sp in
          timed "sweep (count)" Tempagg.Engine.Sweep random;
          timed "tree (count)" Tempagg.Engine.Aggregation_tree random;
          timed "ktree k=1 (sorted)"
            (Tempagg.Engine.Korder_tree { k = 1 })
            sorted;
          (* MIN has no inverse, so the sweep cannot cancel deltas and
             falls back to its flat segment tree over the constant-
             interval buckets — measurably slower than the count path. *)
          add "sweep (min: re-combine)"
            (time_run (fun () ->
                 Tempagg.Engine.eval Tempagg.Engine.Sweep
                   (Tempagg.Monoid.minimum ~compare:Int.compare)
                   (Array.to_seq random)));
          let _, min_stats =
            Tempagg.Engine.eval_with_stats Tempagg.Engine.Sweep
              (Tempagg.Monoid.minimum ~compare:Int.compare)
              (Array.to_seq random)
          in
          note_allocs ~section:"sweep" ~name:"sweep (min: re-combine)" ~n
            (float_of_int min_stats.Tempagg.Instrument.peak_bytes))
        (List.init cfg.repeats (fun i -> i + 1)))
    ns;
  (* Domain scaling at the largest size.  Honest caveat: speedup needs
     real cores; on a single-CPU host the parallel variants only add
     sharding and merge overhead. *)
  let n = cfg.max_size in
  let random = Workload.Generate.random_intervals (spec ~n ~long:0. ~seed:1) in
  let parallel_rows =
    List.map
      (fun d ->
        let algorithm =
          if d = 1 then Tempagg.Engine.Sweep
          else
            Tempagg.Engine.Parallel
              { domains = d; inner = Tempagg.Engine.Sweep }
        in
        let t = eval_time algorithm random in
        Report.Series.add series ~x:n
          ~series:(Printf.sprintf "parallel d=%d (count)" d)
          t;
        note_allocs ~section:"sweep"
          ~name:(Printf.sprintf "parallel d=%d (count)" d)
          ~n (eval_bytes algorithm random);
        [
          string_of_int d;
          Tempagg.Engine.name algorithm;
          Printf.sprintf "%.4f" t;
        ])
      [ 1; 2; 4 ]
  in
  Report.Series.print series;
  Printf.printf
    "domain scaling at n = %d, COUNT on random input (%d core(s) online):\n" n
    (Domain.recommended_domain_count ());
  Report.Table.print ~headers:[ "domains"; "algorithm"; "seconds" ]
    parallel_rows;
  save_csv cfg "sweep" series;
  print_endline
    "shape checks (expected: sweep beats the tree on invertible COUNT; the \
     min fallback gives part of that back; parallel helps only with >1 \
     core):";
  ratio_note series "tree (count)" "sweep (count)";
  ratio_note series "sweep (min: re-combine)" "sweep (count)";
  ratio_note series "parallel d=4 (count)" "parallel d=1 (count)";
  slope_note series "sweep (count)";
  slope_note series "tree (count)"

(* ------------------------------------------------------------------ *)
(* Live views: incremental maintenance vs re-evaluation                *)
(* ------------------------------------------------------------------ *)

(* The live subsystem's headline claim: keeping a materialized aggregate
   timeline patched under writes beats re-running a batch evaluation per
   query, across read/write mixes.  Both strategies serve the same
   deterministic trace (inserts, deletes, point and range queries); the
   re-evaluation baseline keeps the tuple set and runs a fresh
   [Engine.eval Sweep] for every query, which is what a view-less system
   does.  Per-op cost is wall-averaged over the trace, so the trace
   lengths differ per strategy (re-evaluation is orders of magnitude
   slower per query; a long trace would take hours at 100K tuples). *)
let live_bench cfg =
  banner "live"
    "live views: incremental maintenance vs re-evaluation per query";
  let n = if cfg.smoke then min 4_096 (max 256 (4 * cfg.max_size)) else 100_000 in
  let series =
    Report.Series.create ~title:"live" ~x_label:"writes per 1000 ops"
      ~unit_label:"seconds per operation"
  in
  let trace_for ~write_ratio ~length =
    Workload.Generate.trace
      (Workload.Spec.ops
         ~insert_ratio:(write_ratio /. 2.)
         ~delete_ratio:(write_ratio /. 2.)
         ~base:(Workload.Spec.make ~n:(max n 1) ~seed:1 ())
         ~initial:n ~length ())
  in
  (* Replays the trace against one live view; queries read the
     materialized timeline in place. *)
  let run_incremental initial ops =
    let view = Live.View.create Tempagg.Monoid.count in
    let handles : (int, Live.View.handle) Hashtbl.t =
      Hashtbl.create (Array.length initial * 2)
    in
    let loaded =
      Live.View.load view
        (Array.to_seq (Array.map (fun (iv, _) -> (iv, ())) initial))
    in
    List.iteri (fun id h -> Hashtbl.replace handles id h) loaded;
    let next_id = ref (Array.length initial) in
    let t0 = Sys.time () in
    Array.iter
      (fun op ->
        match op with
        | Workload.Generate.Insert (iv, _) ->
            Hashtbl.replace handles !next_id (Live.View.insert view iv ());
            incr next_id
        | Workload.Generate.Delete id ->
            ignore (Live.View.delete view (Hashtbl.find handles id));
            Hashtbl.remove handles id
        | Workload.Generate.Query_point c ->
            ignore (Sys.opaque_identity (Live.View.value_at view c))
        | Workload.Generate.Query_range iv ->
            ignore (Sys.opaque_identity (Live.View.range view iv)))
      ops;
    (Sys.time () -. t0) /. float_of_int (Array.length ops)
  in
  (* The baseline: same trace, but every query re-evaluates the whole
     surviving tuple set from scratch with the fastest batch algorithm. *)
  let run_reeval initial ops =
    let tuples : (int, Interval.t) Hashtbl.t =
      Hashtbl.create (Array.length initial * 2)
    in
    Array.iteri (fun id (iv, _) -> Hashtbl.replace tuples id iv) initial;
    let next_id = ref (Array.length initial) in
    let batch () =
      Tempagg.Engine.eval Tempagg.Engine.Sweep Tempagg.Monoid.count
        (Seq.map (fun (_, iv) -> (iv, ())) (Hashtbl.to_seq tuples))
    in
    let t0 = Sys.time () in
    Array.iter
      (fun op ->
        match op with
        | Workload.Generate.Insert (iv, _) ->
            Hashtbl.replace tuples !next_id iv;
            incr next_id
        | Workload.Generate.Delete id -> Hashtbl.remove tuples id
        | Workload.Generate.Query_point c ->
            ignore (Sys.opaque_identity (Timeline.value_at (batch ()) c))
        | Workload.Generate.Query_range iv ->
            ignore (Sys.opaque_identity (Timeline.clip (batch ()) iv)))
      ops;
    (Sys.time () -. t0) /. float_of_int (Array.length ops)
  in
  let headline = ref None in
  List.iter
    (fun write_ratio ->
      let x = int_of_float ((write_ratio *. 1000.) +. 0.5) in
      let inc_len = if cfg.smoke then 2_000 else 20_000 in
      let re_len = if cfg.smoke then 40 else 200 in
      let initial_i, ops_i = trace_for ~write_ratio ~length:inc_len in
      let t_inc = run_incremental initial_i ops_i in
      let initial_r, ops_r = trace_for ~write_ratio ~length:re_len in
      let t_re = run_reeval initial_r ops_r in
      Report.Series.add series ~x ~series:"incremental view" t_inc;
      Report.Series.add series ~x ~series:"re-evaluate per query" t_re;
      record_point ~section:"live"
        ~name:(Printf.sprintf "w=%.3f" write_ratio)
        ~n ~algorithm:"incremental" ~median_ns:(t_inc *. 1e9) ();
      record_point ~section:"live"
        ~name:(Printf.sprintf "w=%.3f" write_ratio)
        ~n ~algorithm:"reeval" ~median_ns:(t_re *. 1e9) ();
      if write_ratio = 0.01 then headline := Some (t_inc, t_re))
    [ 0.001; 0.01; 0.1; 0.5 ];
  Printf.printf "n = %d preloaded tuples, COUNT, mixed trace (writes split \
                 evenly between insert and delete)\n" n;
  Report.Series.print series;
  (* The per-point records above carry the real n and write ratio; the
     generic series dump would mislabel the ratio as n. *)
  save_csv ~record:false cfg "live" series;
  (match !headline with
  | Some (t_inc, t_re) when t_inc > 0. ->
      Printf.printf
        "headline (1%% writes, n=%d): incremental %.0f ns/op vs \
         re-evaluation %.0f ns/op -> %.0fx (bar: >= 5x)\n"
        n (t_inc *. 1e9) (t_re *. 1e9) (t_re /. t_inc)
  | _ -> ());
  print_endline
    "expectation: incremental maintenance patches O(log n + c) segments \
     per write and answers queries from the materialized timeline, so it \
     wins by orders of magnitude whenever reads are common; re-evaluation \
     narrows the gap only as the mix approaches write-only"

(* ------------------------------------------------------------------ *)
(* Optimizer (Section 6.3)                                             *)
(* ------------------------------------------------------------------ *)

let optimizer () =
  banner "optimizer" "query-optimizer strategy rules (paper Section 6.3)";
  let base = Tempagg.Optimizer.default_metadata ~cardinality:65_536 in
  let cases =
    [
      ("unordered, memory available", base);
      ( "unordered, 1MB budget",
        { base with Tempagg.Optimizer.memory_budget = Some 1_000_000 } );
      ("sorted by time", { base with Tempagg.Optimizer.time_ordered = true });
      ( "retroactively bounded k=40",
        { base with Tempagg.Optimizer.retroactive_bound = Some 40 } );
      ( "few constant intervals (365)",
        { base with Tempagg.Optimizer.expected_constant_intervals = Some 365 }
      );
    ]
  in
  Report.Table.print
    ~headers:[ "situation"; "chosen algorithm"; "sort?" ]
    (List.map
       (fun (what, md) ->
         let c = Tempagg.Optimizer.choose md in
         [
           what;
           Tempagg.Engine.name c.Tempagg.Optimizer.algorithm;
           (if c.Tempagg.Optimizer.sort_first then "yes" else "no");
         ])
       cases)

(* ------------------------------------------------------------------ *)
(* Paired overhead measurement                                         *)
(* ------------------------------------------------------------------ *)

(* Paired comparison over interleaved, compacted rounds: every round
   measures all variants back-to-back and the overhead is the median of
   the per-round ratios against that round's baseline.  Pairing within
   a round cancels the slow drift in GC/allocator state that
   independent measurement blocks pick up, which at these run times
   dwarfs the few percent being resolved here.  Used by the guard and
   obs sections, both of which defend a <3% "disarmed is free" bar. *)
let paired_rounds = 7

(* A steadier timer than the global [time_run]: a rep count calibrated
   once per workload (so every variant runs the same number of times —
   adaptive counts can settle on different powers of two for variants
   of near-identical cost, which skews their GC interaction) and enough
   accumulation per measurement (0.25s) to average GC pacing down to
   where a 3% bar is resolvable. *)
let paired_calibrate f =
  let rec go reps =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    if Sys.time () -. t0 >= 0.25 || reps >= 16_384 then reps else go (reps * 2)
  in
  go 1

let paired_timed reps f =
  let t0 = Sys.time () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Sys.time () -. t0) /. float_of_int reps

let paired_median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

(* Returns, per variant, (median seconds, median overhead vs the first
   variant in the same round, in percent). *)
let measure_paired fns =
  let k = List.length fns in
  let rounds = paired_rounds in
  let reps = paired_calibrate (List.hd fns) in
  let times = Array.make_matrix k rounds infinity in
  for r = 0 to rounds - 1 do
    List.iteri
      (fun i f ->
        Gc.compact ();
        times.(i).(r) <- paired_timed reps f)
      fns
  done;
  List.mapi
    (fun i _ ->
      let ratios = Array.init rounds (fun r -> times.(i).(r) /. times.(0).(r)) in
      (paired_median times.(i), (paired_median ratios -. 1.) *. 100.))
    fns

(* ------------------------------------------------------------------ *)
(* Guard overhead                                                      *)
(* ------------------------------------------------------------------ *)

(* The guard must cost nothing when disarmed: with no limits configured
   [Guard.wrap_seq] is the identity and [Guard.hook] is [None], so the
   uninstrumented happy path — plain eval through a disarmed guard —
   must stay within measurement noise (<3%) of bare eval.  An armed
   guard pays one masked compare per tuple and per node allocation, and
   the [eval_robust] entry point additionally materializes the input
   once so retries can replay ephemeral sequences; both are reported as
   context, but only the disarmed row carries the bar. *)
let guard_bench cfg =
  banner "guard" "resource-guard overhead on the happy path";
  let n = min cfg.max_size 16_384 in
  let sp = spec ~n ~long:0. ~seed:1 in
  let random = Workload.Generate.random_intervals sp in
  let sorted = Workload.Generate.sorted_intervals sp in
  let rounds = paired_rounds in
  let cases =
    [
      ("tree, random input", Tempagg.Engine.Aggregation_tree, random);
      ("sweep, random input", Tempagg.Engine.Sweep, random);
      ("ktree k=1, sorted input", Tempagg.Engine.Korder_tree { k = 1 }, sorted);
    ]
  in
  let worst_disarmed = ref neg_infinity in
  let rows =
    List.map
      (fun (what, algorithm, arr) ->
        let disarmed_guard = Tempagg.Guard.create () in
        let variants =
          [
            (fun () ->
              Tempagg.Engine.eval algorithm Tempagg.Monoid.count
                (count_data arr));
            (fun () ->
              Tempagg.Engine.eval algorithm Tempagg.Monoid.count
                (Tempagg.Guard.wrap_seq disarmed_guard (count_data arr)));
            (fun () ->
              let g =
                Tempagg.Guard.create ~memory_budget:max_int ~deadline_ms:1e9 ()
              in
              let inst =
                Tempagg.Instrument.create
                  ~node_bytes:(Tempagg.Engine.node_bytes algorithm)
                  ()
              in
              Tempagg.Guard.attach g inst;
              Tempagg.Engine.eval ~instrument:inst algorithm
                Tempagg.Monoid.count
                (Tempagg.Guard.wrap_seq g (count_data arr)));
            (fun () ->
              match
                Tempagg.Engine.eval_robust algorithm Tempagg.Monoid.count
                  (count_data arr)
              with
              | Ok (tl, []) -> tl
              | Ok (_, _ :: _) -> failwith "guard bench: unexpected degradation"
              | Error e -> failwith (Tempagg.Engine.error_to_string e));
          ]
        in
        match measure_paired variants with
        | [ (plain, _); disarmed; armed; robust ] ->
            let cell (t, pct) = Printf.sprintf "%.4f (%+.1f%%)" t pct in
            worst_disarmed := Float.max !worst_disarmed (snd disarmed);
            [
              what;
              Printf.sprintf "%.4f" plain;
              cell disarmed;
              cell armed;
              cell robust;
            ]
        | _ -> assert false)
      cases
  in
  Printf.printf
    "n = %d tuples, COUNT, seconds per evaluation (median of %d paired \
     rounds)\n"
    n rounds;
  Report.Table.print
    ~headers:
      [ "workload"; "bare eval"; "disarmed guard"; "armed guard";
        "eval_robust" ]
    rows;
  Printf.printf
    "worst disarmed-guard overhead: %+.1f%% (bar: within noise, < 3%%)\n"
    !worst_disarmed;
  print_endline
    "expectation: a disarmed guard is free (wrap_seq is the identity, no \
     hook installed); arming it costs a masked compare per tuple and per \
     node; eval_robust adds one up-front materialization pass so retries \
     can replay a single-pass input"

(* ------------------------------------------------------------------ *)
(* Observability overhead + artifacts                                  *)
(* ------------------------------------------------------------------ *)

(* Writes the observability artifacts next to the --json output: the
   ring's Chrome trace of a Parallel sweep (BENCH_trace.json — load it
   in about://tracing or Perfetto, one row per domain) and a Prometheus
   exposition of an instrumented run's engine gauges
   (BENCH_metrics.txt). *)
let write_obs_artifacts cfg =
  match cfg.json with
  | None -> ()
  | Some json_path ->
      let dir = Filename.dirname json_path in
      if dir <> "." then mkdir_p dir;
      let n = min cfg.max_size 16_384 in
      let sp = spec ~n ~long:0. ~seed:1 in
      let random = Workload.Generate.random_intervals sp in
      (* Trace: one Parallel run on an emptied ring, one shard span per
         domain. *)
      Obs.Trace.clear ();
      ignore
        (Tempagg.Engine.eval
           (Tempagg.Engine.Parallel { domains = 4; inner = Tempagg.Engine.Sweep })
           Tempagg.Monoid.count (count_data random));
      let spans = Obs.Trace.recorded () in
      let trace_path = Filename.concat dir "BENCH_trace.json" in
      Out_channel.with_open_text trace_path (fun oc ->
          output_string oc (Obs.Trace.to_chrome_json spans));
      Printf.printf "(trace written to %s: %d spans)\n" trace_path
        (List.length spans);
      (* Metrics: an instrumented run's snapshot folded into a registry. *)
      let registry = Obs.Metrics.create () in
      let _, stats =
        Tempagg.Engine.eval_with_stats Tempagg.Engine.Sweep
          Tempagg.Monoid.count (count_data random)
      in
      Tempagg.Instrument.snapshot_to_metrics registry stats;
      let metrics_path = Filename.concat dir "BENCH_metrics.txt" in
      Out_channel.with_open_text metrics_path (fun oc ->
          output_string oc (Obs.Metrics.expose registry));
      Printf.printf "(metrics written to %s)\n" metrics_path

(* Tracing must cost nothing when off: an instrumented hot path —
   [Engine.eval] over the sweep — checks one atomic load and otherwise
   calls straight through, so with the ring off (capacity 0) it must
   stay within measurement noise (<3%) of calling [Sweep.eval]
   directly.  The always-on flight recorder (default ring capacity)
   carries the same bar: it adds one bounded ring append per span, and
   the server leaves it on for every request. *)
let obs_bench cfg =
  banner "obs" "tracing and flight-recorder overhead on the sweep hot path";
  let n = min cfg.max_size 16_384 in
  let sp = spec ~n ~long:0. ~seed:1 in
  let random = Workload.Generate.random_intervals sp in
  let sorted = Workload.Generate.sorted_intervals sp in
  let worst_disarmed = ref neg_infinity in
  let worst_recorder = ref neg_infinity in
  let rows =
    List.map
      (fun (what, arr) ->
        let variants =
          [
            (fun () -> Tempagg.Sweep.eval Tempagg.Monoid.count (count_data arr));
            (fun () ->
              (* Idempotence guard: only the first rep after a variant
                 switch pays the resize, not every timed iteration. *)
              if Obs.Trace.ring_capacity_now () <> 0 then
                Obs.Trace.set_ring_capacity 0;
              Tempagg.Engine.eval Tempagg.Engine.Sweep Tempagg.Monoid.count
                (count_data arr));
            (fun () ->
              if Obs.Trace.ring_capacity_now () <> 2048 then
                Obs.Trace.set_ring_capacity 2048;
              Tempagg.Engine.eval Tempagg.Engine.Sweep Tempagg.Monoid.count
                (count_data arr));
          ]
        in
        let result = measure_paired variants in
        Obs.Trace.set_ring_capacity 2048;
        match result with
        | [ (plain, _); disarmed; recorder ] ->
            let cell (t, pct) = Printf.sprintf "%.4f (%+.1f%%)" t pct in
            worst_disarmed := Float.max !worst_disarmed (snd disarmed);
            worst_recorder := Float.max !worst_recorder (snd recorder);
            record_point ~section:"obs" ~name:what ~n ~algorithm:"sweep"
              ~median_ns:(plain *. 1e9)
              ~allocs:(eval_bytes Tempagg.Engine.Sweep arr) ();
            [
              what;
              Printf.sprintf "%.4f" plain;
              cell disarmed;
              cell recorder;
            ]
        | _ -> assert false)
      [ ("sweep, random input", random); ("sweep, sorted input", sorted) ]
  in
  Printf.printf
    "n = %d tuples, COUNT, seconds per evaluation (median of %d paired \
     rounds)\n"
    n paired_rounds;
  Report.Table.print
    ~headers:
      [ "workload"; "bare Sweep.eval"; "tracing off"; "recorder on" ]
    rows;
  Printf.printf
    "worst tracing-off overhead:       %+.1f%% (bar: within noise, < 3%%)\n"
    !worst_disarmed;
  Printf.printf
    "worst always-on-recorder overhead: %+.1f%% (bar: within noise, < 3%%)\n"
    !worst_recorder;
  print_endline
    "expectation: with the ring off an eval costs one atomic load; the \
     always-on recorder adds one bounded ring append per span (one span per \
     eval here)";
  write_obs_artifacts cfg

(* ------------------------------------------------------------------ *)
(* Adaptive planning overhead                                          *)
(* ------------------------------------------------------------------ *)

(* The stats-driven planner must not tax queries whose metadata was
   already right: end-to-end TSQL evaluation with [~adaptive:true]
   (statistics-store lookup + [Optimizer.choose_observed], store warmed
   by prior runs of the same query) must stay within noise (<3%) of
   [~adaptive:false] planning from declared metadata alone.  Measured on
   both a sorted and a shuffled relation so the bar covers the ktree and
   sweep plans alike.  Recording outcomes happens in both variants —
   that is unconditional by design — so the delta isolates the decision
   path. *)
let adaptive_bench cfg =
  banner "adaptive" "stats-driven planning vs declared metadata";
  let n = min cfg.max_size 8_192 in
  let sp = spec ~n ~long:0. ~seed:1 in
  let shuffled = Workload.Generate.relation sp in
  let sorted = Relation.Trel.sort_by_time shuffled in
  let sql = "SELECT COUNT(Name) FROM R" in
  (* The algorithm each variant planned, lifted off the explain text
     ("... using <algorithm>[; on error: ...]"). *)
  let planned catalog ~adaptive =
    match Tsql.Eval.explain ~adaptive catalog sql with
    | Error e -> "error: " ^ e
    | Ok text ->
        let first = List.hd (String.split_on_char '\n' text) in
        let pat = " using " in
        let plen = String.length pat in
        let rec find i =
          if i + plen > String.length first then first
          else if String.sub first i plen = pat then
            String.sub first (i + plen) (String.length first - i - plen)
          else find (i + 1)
        in
        find 0
  in
  let worst = ref neg_infinity in
  let rows =
    List.map
      (fun (what, rel) ->
        let catalog = Tsql.Catalog.add (Tsql.Catalog.create ()) "R" rel in
        let eval ~adaptive () =
          match Tsql.Eval.query ~adaptive catalog sql with
          | Ok r -> r
          | Error e -> failwith e
        in
        (* Warm the store: the steady state being defended is "adaptive
           planning with observations present". *)
        ignore (eval ~adaptive:true ());
        match
          measure_paired
            [ (fun () -> eval ~adaptive:false ());
              (fun () -> eval ~adaptive:true ()) ]
        with
        | [ (declared, _); (adaptive_t, pct) ] ->
            worst := Float.max !worst pct;
            record_point ~section:"adaptive" ~name:what ~n
              ~algorithm:"declared" ~median_ns:(declared *. 1e9) ();
            record_point ~section:"adaptive" ~name:what ~n
              ~algorithm:"adaptive" ~median_ns:(adaptive_t *. 1e9) ();
            [
              what;
              Printf.sprintf "%.4f" declared;
              Printf.sprintf "%.4f (%+.1f%%)" adaptive_t pct;
              planned catalog ~adaptive:false;
              planned catalog ~adaptive:true;
            ]
        | _ -> assert false)
      [ ("sorted input", sorted); ("shuffled input", shuffled) ]
  in
  Printf.printf
    "n = %d tuples, COUNT via TSQL, seconds per query (median of %d paired \
     rounds)\n"
    n paired_rounds;
  Report.Table.print
    ~headers:
      [ "workload"; "declared"; "adaptive"; "declared plan"; "adaptive plan" ]
    rows;
  Printf.printf
    "worst adaptive-planning overhead: %+.1f%% (bar: within noise, < 3%%)\n"
    !worst;
  print_endline
    "expectation: the adaptive path adds one store lookup and a metadata \
     merge per plan — nothing per tuple — so end-to-end cost is unchanged \
     when declared metadata was already right"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_balanced cfg =
  banner "ablation_balanced"
    "balanced aggregation tree (paper Section 7 future work)";
  let series =
    Report.Series.create ~title:"balanced vs plain tree" ~x_label:"tuples"
      ~unit_label:"seconds per evaluation"
  in
  List.iter
    (fun n ->
      let sp = spec ~n ~long:0. ~seed:1 in
      let sorted = Workload.Generate.sorted_intervals sp in
      let random = Workload.Generate.random_intervals sp in
      let add nm v = Report.Series.add series ~x:n ~series:nm v in
      let timed = eval_timed ~section:"ablation_balanced" ~n add in
      if n <= cfg.cap_quadratic then
        timed "plain (sorted input)" Tempagg.Engine.Aggregation_tree sorted;
      timed "balanced (sorted input)" Tempagg.Engine.Balanced_tree sorted;
      timed "plain (random input)" Tempagg.Engine.Aggregation_tree random;
      timed "balanced (random input)" Tempagg.Engine.Balanced_tree random)
    (sizes cfg);
  Report.Series.print series;
  save_csv cfg "ablation_balanced" series;
  print_endline
    "expectation: balancing turns the sorted worst case from ~n^2 into \
     ~n log n at the price of rotation overhead on random input";
  slope_note series "plain (sorted input)";
  slope_note series "balanced (sorted input)";
  ratio_note series "balanced (random input)" "plain (random input)"

let ablation_span cfg =
  banner "ablation_span" "grouping by span (paper Sections 2, 6.3 and 7)";
  let n = min cfg.max_size 8_192 in
  let sp = spec ~n ~long:0. ~seed:1 in
  let data = Workload.Generate.random_intervals sp in
  let rows =
    List.map
      (fun span_len ->
        let granule =
          if span_len = 1 then Granule.instant else Granule.make span_len
        in
        let t =
          time_run (fun () ->
              Tempagg.Span.eval ~granule Tempagg.Monoid.count
                (count_data data))
        in
        let result, stats =
          Tempagg.Span.eval_with_stats ~granule Tempagg.Monoid.count
            (count_data data)
        in
        [
          string_of_int span_len;
          string_of_int (Timeline.length result);
          Printf.sprintf "%.4f" t;
          string_of_int stats.Tempagg.Instrument.peak_bytes;
        ])
      [ 1; 100; 10_000; 100_000 ]
  in
  Printf.printf "n = %d random tuples, lifespan 1M instants\n" n;
  Report.Table.print
    ~headers:[ "span length"; "result rows"; "seconds"; "peak bytes" ]
    rows;
  print_endline
    "expectation: coarser spans mean far fewer buckets — time and memory \
     drop with the result size (the paper's grouping-by-span discussion)"

(* Quantize timestamps to multiples of [g], emulating coarse granularities
   or batch-written records (fewer unique timestamps, Section 6.3). *)
let quantize_starts g data =
  Array.map
    (fun (iv, v) ->
      let s = Chronon.to_int (Interval.start iv) in
      let e = Chronon.to_int (Interval.stop iv) in
      let s' = s - (s mod g) in
      let e' = max s' (e - (e mod g)) in
      (Interval.of_ints s' e', v))
    data

let ablation_unique cfg =
  banner "ablation_unique"
    "effect of unique-timestamp density (paper Section 6.3 prose)";
  let n = min cfg.max_size 8_192 in
  let sp = spec ~n ~long:0. ~seed:1 in
  let data = Workload.Generate.random_intervals sp in
  let rows =
    List.map
      (fun g ->
        let coarse = quantize_starts g data in
        let t = eval_time Tempagg.Engine.Aggregation_tree coarse in
        let tree = eval_bytes Tempagg.Engine.Aggregation_tree coarse in
        let list_bytes =
          if n <= cfg.cap_quadratic then
            Printf.sprintf "%.0f" (eval_bytes Tempagg.Engine.Linked_list coarse)
          else "-"
        in
        [
          string_of_int g;
          Printf.sprintf "%.4f" t;
          Printf.sprintf "%.0f" tree;
          list_bytes;
        ])
      [ 1; 16; 256; 4_096 ]
  in
  Printf.printf "n = %d random tuples; timestamps rounded to multiples of g\n"
    n;
  Report.Table.print
    ~headers:
      [ "granularity g"; "tree seconds"; "tree peak bytes"; "list peak bytes" ]
    rows;
  print_endline
    "expectation: fewer unique timestamps (the student-records case) shrink \
     the state of every algorithm, especially tree and list"


(* ------------------------------------------------------------------ *)
(* Extension ablations: paged tree, page randomization, storage I/O    *)
(* ------------------------------------------------------------------ *)

let ablation_paged cfg =
  banner "ablation_paged"
    "limited-memory paged aggregation tree (paper Sections 5.1 and 7)";
  let n = min cfg.max_size 8_192 in
  let sp = spec ~n ~long:0.3 ~seed:1 in
  let data = Workload.Generate.random_intervals sp in
  let rows =
    List.map
      (fun budget ->
        let t =
          time_run (fun () ->
              Tempagg.Paged_tree.eval ~budget_nodes:budget Tempagg.Monoid.count
                (count_data data))
        in
        let _, stats =
          Tempagg.Paged_tree.eval_with_stats ~budget_nodes:budget
            Tempagg.Monoid.count (count_data data)
        in
        [
          string_of_int budget;
          Printf.sprintf "%.4f" t;
          string_of_int stats.Tempagg.Paged_tree.peak_live_nodes;
          string_of_int stats.Tempagg.Paged_tree.evictions;
          string_of_int stats.Tempagg.Paged_tree.spilled_bytes;
        ])
      [ 1_000_000; 8_192; 2_048; 512; 128 ]
  in
  Printf.printf "n = %d random tuples (30%% long-lived)\n" n;
  Report.Table.print
    ~headers:
      [ "node budget"; "seconds"; "peak live nodes"; "evictions";
        "spilled bytes" ]
    rows;
  print_endline
    "expectation: peak memory tracks the budget (within the one-region \
     replay factor); time degrades gracefully as spill traffic grows"

let ablation_pagerand cfg =
  banner "ablation_pagerand"
    "page randomization for sorted relations (paper Section 7)";
  let n = min cfg.max_size (min cfg.cap_quadratic 8_192) in
  let sp = spec ~n ~long:0. ~seed:1 in
  let sorted = Workload.Generate.sorted_intervals sp in
  let prng = Workload.Prng.create ~seed:5 in
  let randomized =
    Ordering.Perturb.page_randomized
      ~rand:(Workload.Prng.int_bounded prng)
      ~page_tuples:64 ~buffer_pages:8 sorted
  in
  let shuffled =
    Ordering.Perturb.shuffle ~rand:(Workload.Prng.int_bounded prng) sorted
  in
  let depth_of data =
    let t = Tempagg.Agg_tree.create Tempagg.Monoid.count in
    Array.iter (fun (iv, _) -> Tempagg.Agg_tree.insert t iv ()) data;
    Tempagg.Agg_tree.depth t
  in
  let rows =
    List.map
      (fun (name, data) ->
        [
          name;
          Printf.sprintf "%.4f" (eval_time Tempagg.Engine.Aggregation_tree data);
          string_of_int (depth_of data);
        ])
      [
        ("sorted (worst case)", sorted);
        ("page-randomized (64x8 buffer)", randomized);
        ("fully random", shuffled);
      ]
  in
  Printf.printf "n = %d tuples, aggregation tree\n" n;
  Report.Table.print ~headers:[ "input order"; "seconds"; "tree depth" ] rows;
  print_endline
    "expectation: shuffling each buffer of pages as it is read recovers \
     nearly all of the random-order performance without a real sort"

let storage_io cfg =
  banner "storage_io"
    "disk I/O vs memory: the Section 6.3 optimizer trade-off, measured";
  let n = min cfg.max_size 16_384 in
  let sp = spec ~n ~long:0.2 ~seed:1 in
  let dir = Filename.temp_file "tempagg_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let archive = Filename.concat dir "rel.heap" in
      let sorted_path = Filename.concat dir "rel.sorted.heap" in
      let io0 = Storage.Io_stats.create () in
      Storage.Heap_file.write_relation ~stats:io0 archive
        (Workload.Generate.relation sp);
      let scan_count stats path =
        let r = Storage.Heap_file.open_reader ~stats path in
        let data =
          Seq.map (fun t -> (Relation.Tuple.valid t, ())) (Storage.Heap_file.scan r)
        in
        (r, data)
      in
      (* Strategy A: single scan, unbounded tree. *)
      let ioa = Storage.Io_stats.create () in
      let insta = Tempagg.Instrument.create () in
      let ra, da = scan_count ioa archive in
      ignore (Tempagg.Agg_tree.eval ~instrument:insta Tempagg.Monoid.count da);
      Storage.Heap_file.close_reader ra;
      (* Strategy B: external sort + ktree(1). *)
      let iob = Storage.Io_stats.create () in
      let instb = Tempagg.Instrument.create () in
      Storage.External_sort.sort ~memory_tuples:2048 ~stats:iob ~src:archive
        ~dst:sorted_path ();
      let rb, db = scan_count iob sorted_path in
      ignore
        (Tempagg.Korder_tree.eval ~instrument:instb ~k:1 Tempagg.Monoid.count db);
      Storage.Heap_file.close_reader rb;
      (* Strategy C: single scan, paged tree. *)
      let ioc = Storage.Io_stats.create () in
      let instc = Tempagg.Instrument.create () in
      let rc, dc = scan_count ioc archive in
      let pt =
        Tempagg.Paged_tree.create ~instrument:instc ~spill_dir:dir
          ~budget_nodes:2048 Tempagg.Monoid.count
      in
      Seq.iter (fun (iv, ()) -> Tempagg.Paged_tree.insert pt iv ()) dc;
      let spilled_pages =
        ignore (Tempagg.Paged_tree.result pt);
        Tempagg.Paged_tree.spilled_bytes pt
        / Storage.Heap_file.default_page_size
      in
      Storage.Heap_file.close_reader rc;
      Printf.printf "n = %d tuples (20%% long-lived), 8K pages\n" n;
      Report.Table.print
        ~headers:
          [ "strategy"; "pages read"; "pages written"; "algorithm peak bytes" ]
        [
          [
            "scan + aggregation tree";
            string_of_int (Storage.Io_stats.pages_read ioa);
            string_of_int (Storage.Io_stats.pages_written ioa);
            string_of_int (Tempagg.Instrument.peak_bytes insta);
          ];
          [
            "external sort + ktree(1)";
            string_of_int (Storage.Io_stats.pages_read iob);
            string_of_int (Storage.Io_stats.pages_written iob);
            string_of_int (Tempagg.Instrument.peak_bytes instb);
          ];
          [
            Printf.sprintf "scan + paged tree (+%d spill pages)" spilled_pages;
            string_of_int (Storage.Io_stats.pages_read ioc);
            string_of_int (Storage.Io_stats.pages_written ioc);
            string_of_int (Tempagg.Instrument.peak_bytes instc);
          ];
        ];
      print_endline
        "Section 6.3: \"if memory is cheaper than disk I/O, the aggregation \
         tree is the best approach; if the disk access time necessary to \
         sort is less costly than the memory the tree requires, the \
         k-ordered aggregation tree [after sorting] is the best approach\"")

(* ------------------------------------------------------------------ *)
(* Partitioned storage: pruning + shard-parallel evaluation            *)
(* ------------------------------------------------------------------ *)

(* The tentpole claim for time-partitioned storage: a query whose
   DURING window covers a small slice of the time domain should not pay
   for the rest of the relation.  Both strategies answer the same
   clipped COUNT from the same on-disk shards; the full scan reads and
   decodes every shard (what an unpartitioned heap file forces), the
   pruned path reads only the shards overlapping the window and
   evaluates them shard-parallel with the joints pinned via
   [shard_offsets].  The win scales with the pruned fraction because
   the dominant cost at this size is page read + decode. *)
let shard_bench cfg =
  banner "shard"
    "time-partitioned storage: pruned shard-parallel evaluation vs \
     unpartitioned full scan";
  let n = if cfg.smoke then 20_000 else 1_000_000 in
  let shards = 8 in
  let lifespan = 1_000_000 in
  let rel = Workload.Generate.relation (spec ~n ~long:0. ~seed:1) in
  let dir = Filename.temp_file "tempagg_shard" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let pdir = Filename.concat dir "rel" in
      if Sys.file_exists pdir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat pdir f))
          (Sys.readdir pdir);
        Sys.rmdir pdir
      end;
      Sys.rmdir dir)
    (fun () ->
      let boundaries =
        Storage.Partition.choose_boundaries ~shards
          ~lifespan:(0, lifespan - 1) []
      in
      let p =
        Storage.Partition.create ~split_threshold:max_int ~boundaries
          ~dir:(Filename.concat dir "rel")
          (Relation.Trel.schema rel)
      in
      List.iter (Storage.Partition.insert p) (Relation.Trel.tuples rel);
      Storage.Partition.flush p;
      let all = Storage.Partition.prune p None in
      let clip w tuples =
        List.filter_map
          (fun tu ->
            Option.map
              (fun iv -> (iv, ()))
              (Interval.intersect (Relation.Tuple.valid tu) w))
          tuples
      in
      let full_scan w () =
        let data =
          List.concat_map (fun i -> clip w (Storage.Partition.shard_tuples p i))
            all
        in
        Tempagg.Engine.eval Tempagg.Engine.Sweep Tempagg.Monoid.count
          (List.to_seq data)
      in
      let pruned_scan w () =
        let keep = Storage.Partition.prune p (Some w) in
        let blocks =
          List.map (fun i -> clip w (Storage.Partition.shard_tuples p i)) keep
        in
        let offsets = Array.make (List.length blocks + 1) 0 in
        List.iteri
          (fun i b -> offsets.(i + 1) <- offsets.(i) + List.length b)
          blocks;
        let data = List.to_seq (List.concat blocks) in
        match keep with
        | [] | [ _ ] ->
            Tempagg.Engine.eval Tempagg.Engine.Sweep Tempagg.Monoid.count data
        | _ ->
            Tempagg.Engine.eval ~shard_offsets:offsets
              (Tempagg.Engine.Parallel
                 { domains = List.length keep; inner = Tempagg.Engine.Sweep })
              Tempagg.Monoid.count data
      in
      let pct a b = lifespan * a / 100, (lifespan * b / 100) - 1 in
      let windows =
        [
          ("narrow 10%", (fun () -> pct 45 55) ());
          ("wide 80%", (fun () -> pct 10 90) ());
        ]
      in
      (* Same answer both ways, once, before timing anything. *)
      List.iter
        (fun (what, (lo, hi)) ->
          let w = Interval.of_ints lo hi in
          if
            Timeline.to_list (full_scan w ())
            <> Timeline.to_list (pruned_scan w ())
          then failwith ("shard bench: pruned result differs on " ^ what))
        windows;
      let headline = ref None in
      let rows =
        List.map
          (fun (what, (lo, hi)) ->
            let w = Interval.of_ints lo hi in
            let kept = List.length (Storage.Partition.prune p (Some w)) in
            let t_full = time_run (full_scan w) in
            let t_pruned = time_run (pruned_scan w) in
            record_point ~section:"shard" ~name:what ~n ~algorithm:"full-scan"
              ~median_ns:(t_full *. 1e9) ();
            record_point ~section:"shard" ~name:what ~n
              ~algorithm:"pruned-parallel" ~median_ns:(t_pruned *. 1e9) ();
            if what = "narrow 10%" then headline := Some (t_full, t_pruned);
            [
              what;
              Printf.sprintf "%d of %d" kept (List.length all);
              Printf.sprintf "%.4f" t_full;
              Printf.sprintf "%.4f" t_pruned;
              (if t_pruned > 0. then Printf.sprintf "%.1fx" (t_full /. t_pruned)
               else "-");
            ])
          windows
      in
      Printf.printf
        "n = %d tuples over a %d-instant lifespan, %d fixed-width shards on \
         disk, COUNT clipped to the window\n"
        n lifespan (List.length all);
      Report.Table.print
        ~headers:
          [ "window"; "shards scanned"; "full scan s"; "pruned s"; "speedup" ]
        rows;
      (match !headline with
      | Some (t_full, t_pruned) when t_pruned > 0. ->
          Printf.printf
            "headline (10%% window, n=%d): full scan %.4f s vs pruned %.4f s \
             -> %.1fx (bar at n=1M: >= 3x)\n"
            n t_full t_pruned (t_full /. t_pruned)
      | _ -> ());
      print_endline
        "expectation: the pruned path skips ~90% of page reads and decodes \
         on the narrow window and wins by several x; on the wide window \
         most shards survive pruning and the two strategies converge")

(* ------------------------------------------------------------------ *)
(* join: endpoint sweep vs nested loop                                 *)
(* ------------------------------------------------------------------ *)

(* The join subsystem's claim: on selective predicates the endpoint
   sweep pays O((n+m) log(n+m)) radix sorting plus output-proportional
   scans of a small active-tuple map, while the nested loop always
   pays the full n*m compiled comparisons.  Short-lived tuples over a
   1M-instant lifespan keep the active maps small, so at 100k tuples
   per side the gap is orders of magnitude.  BEFORE is the sweep's
   ordered prefix scan, but its output is itself quadratic in n, so it
   is measured at the quadratic cap like the paper's O(n^2)
   algorithms. *)
let join_bench cfg =
  banner "join"
    "interval join: gapless-hash endpoint sweep vs nested loop";
  let n = if cfg.smoke then 2_000 else 100_000 in
  let mk seed = Workload.Spec.make ~n ~short_max:100 ~seed () in
  let p =
    Workload.Spec.pair ~overlap_density:0.01 ~left:(mk 11) ~right:(mk 12) ()
  in
  let left_arr, right_arr = Workload.Generate.pair_intervals p in
  let left = Array.map fst left_arr and right = Array.map fst right_arr in
  let preds =
    [
      Join.Predicate.Allen Interval.Overlaps;
      Join.Predicate.Allen Interval.Meets;
      Join.Predicate.Intersects;
    ]
  in
  (* Same pairs both ways on a small prefix, once, before timing. *)
  let check_n = min n 2_000 in
  let sub a = Array.sub a 0 check_n in
  List.iter
    (fun pred ->
      if
        Join.Engine.pairs Join.Engine.Sweep pred (sub left) (sub right)
        <> Join.Engine.pairs Join.Engine.Nested_loop pred (sub left)
             (sub right)
      then
        failwith
          ("join bench: strategies disagree on "
          ^ Join.Predicate.to_string pred))
    (Join.Predicate.Allen Interval.Before :: preds);
  let count strategy pred l r () =
    let c = ref 0 in
    Join.Engine.run strategy pred ~left:l ~right:r (fun _ _ -> incr c);
    !c
  in
  let headline = ref None in
  let measure name pred l r point_n =
    let t_sweep = time_run (count Join.Engine.Sweep pred l r) in
    let t_nested = time_run (count Join.Engine.Nested_loop pred l r) in
    let pairs = count Join.Engine.Sweep pred l r () in
    record_point ~section:"join" ~name ~n:point_n ~algorithm:"sweep-join"
      ~median_ns:(t_sweep *. 1e9) ();
    record_point ~section:"join" ~name ~n:point_n
      ~algorithm:"nested-loop-join" ~median_ns:(t_nested *. 1e9) ();
    if name = "OVERLAPS" then headline := Some (t_nested, t_sweep);
    [
      name;
      string_of_int point_n;
      string_of_int pairs;
      Printf.sprintf "%.4f" t_sweep;
      Printf.sprintf "%.4f" t_nested;
      (if t_sweep > 0. then Printf.sprintf "%.1fx" (t_nested /. t_sweep)
       else "-");
    ]
  in
  let rows =
    List.map
      (fun pred -> measure (Join.Predicate.to_string pred) pred left right n)
      preds
  in
  let nb = min n cfg.cap_quadratic in
  let rows =
    rows
    @ [
        measure "BEFORE"
          (Join.Predicate.Allen Interval.Before)
          (Array.sub left 0 nb) (Array.sub right 0 nb) nb;
      ]
  in
  Printf.printf
    "%d tuples per side (BEFORE capped at %d), short-lived 1-100 over a \
     1M-instant lifespan, overlap density %.0f%%\n"
    n nb
    (p.Workload.Spec.overlap_density *. 100.);
  Report.Table.print
    ~headers:[ "predicate"; "n/side"; "pairs"; "sweep s"; "nested s"; "speedup" ]
    rows;
  match !headline with
  | Some (t_nested, t_sweep) when t_sweep > 0. ->
      Printf.printf
        "headline (OVERLAPS, n=%d per side): nested-loop %.4f s vs sweep \
         %.4f s -> %.1fx (bar at n=100k: >= 5x)\n"
        n t_nested t_sweep (t_nested /. t_sweep)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* net: the TCP server under concurrent client processes               *)
(* ------------------------------------------------------------------ *)

(* Exact percentile over a sorted latency array (µs). *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let net_statement_of_op next_id op =
  let iv_ints iv =
    ( Temporal.Chronon.to_int (Temporal.Interval.start iv),
      Temporal.Chronon.to_int (Temporal.Interval.stop iv) )
  in
  match op with
  | Workload.Generate.Insert (iv, v) ->
      let id = !next_id in
      incr next_id;
      let a, b = iv_ints iv in
      Printf.sprintf "INSERT INTO t VALUES (%d, %d) DURING [%d,%d]" id v a b
  | Workload.Generate.Delete id ->
      Printf.sprintf "DELETE FROM t WHERE id = %d" id
  | Workload.Generate.Query_point c ->
      let c = Temporal.Chronon.to_int c in
      Printf.sprintf "SELECT COUNT(id) FROM t DURING [%d,%d]" c c
  | Workload.Generate.Query_range iv ->
      let a, b = iv_ints iv in
      Printf.sprintf "SELECT COUNT(id) FROM t DURING [%d,%d]" a b

(* The body of one forked client process: replay a trace of [ops_len]
   operations as protocol statements, one outstanding at a time, and
   log "<status> <latency_us>" per request to [file]. *)
let net_client_body ~port ~seed ~initial_n ~ops_len ~file =
  let _, ops =
    Workload.Generate.trace
      (Workload.Spec.ops
         ~base:(Workload.Spec.make ~n:initial_n ~seed ())
         ~initial:initial_n ~length:ops_len ())
  in
  let oc = open_out file in
  let rec connect tries =
    try Net.Client.connect ~port ()
    with Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  let c = connect 40 in
  let next_id = ref initial_n in
  Array.iter
    (fun op ->
      let stmt = net_statement_of_op next_id op in
      let t0 = Unix.gettimeofday () in
      let status =
        match Net.Client.request c stmt with
        | Ok (Net.Protocol.Ok_reply { degraded = true; _ }) -> "degraded"
        | Ok (Net.Protocol.Ok_reply _) -> "ok"
        | Ok (Net.Protocol.Err _) -> "err"
        | Ok (Net.Protocol.Busy _) -> "busy"
        | Ok _ | Error _ -> "violation"
      in
      Printf.fprintf oc "%s %.0f\n" status ((Unix.gettimeofday () -. t0) *. 1e6))
    ops;
  ignore (Net.Client.request c "QUIT");
  Net.Client.close c;
  close_out oc

type net_round_result = {
  nr_admitted : int;
  nr_degraded : int;
  nr_err : int;
  nr_busy : int;
  nr_violations : int;
  nr_rps : float;
  nr_p50_us : float;
  nr_p99_us : float;
  nr_p999_us : float;
  nr_drained : bool;
  nr_client_failures : int;
}

let net_round ~tag ~clients ~domains ~queue_depth ~watermark ~initial_n
    ~ops_len () =
  (* The initial relation is shared through the catalog; each
     connection's writes stay session-local, which is exactly what a
     load test wants (no cross-client interference). *)
  (* length 1 because a trace must be non-empty; only the preload is
     used here. *)
  let initial, _ =
    Workload.Generate.trace
      (Workload.Spec.ops
         ~base:(Workload.Spec.make ~n:initial_n ~seed:11 ())
         ~initial:initial_n ~length:1 ())
  in
  let schema =
    Relation.Schema.of_pairs
      [ ("id", Relation.Value.Tint); ("v", Relation.Value.Tint) ]
  in
  let rel =
    Relation.Trel.of_array schema
      (Array.mapi
         (fun i (iv, v) ->
           Relation.Tuple.make
             [| Relation.Value.Int i; Relation.Value.Int v |]
             iv)
         initial)
  in
  let catalog = Tsql.Catalog.add (Tsql.Catalog.create ()) "t" rel in
  let config =
    {
      Net.Server.default_config with
      Net.Server.transport = Net.Server.Tcp 0;
      domains;
      queue_depth;
      degrade_watermark = watermark;
      drain_timeout_ms = 10_000;
      idle_timeout_ms = 120_000;
    }
  in
  let srv = Net.Server.create ~config catalog in
  let port = Option.get (Net.Server.port srv) in
  let files =
    List.init clients (fun i ->
        Filename.temp_file "tempagg-net-lat" (Printf.sprintf ".%s.%d" tag i))
  in
  (* The server and every client run as forked processes — the parent
     never spawns a domain (the OCaml 5 runtime refuses to fork once
     any domain has ever been created, so all Domain.spawn happens in
     the server child).  Children exit with [_exit] so inherited
     channel buffers are not re-flushed.  The server child's exit code
     reports the drain: 0 iff SIGTERM drained it cleanly — which makes
     the round a real end-to-end signal-handling check. *)
  flush stdout;
  flush stderr;
  let server_pid =
    match Unix.fork () with
    | 0 ->
        let code =
          try
            let report = Net.Server.run ~signals:true srv in
            if report.Net.Server.drained then 0 else 2
          with _ -> 3
        in
        Unix._exit code
    | pid -> pid
  in
  let t_start = Unix.gettimeofday () in
  let pids =
    List.mapi
      (fun i file ->
        match Unix.fork () with
        | 0 ->
            let status =
              try
                net_client_body ~port ~seed:(101 + i) ~initial_n ~ops_len ~file;
                0
              with _ -> 1
            in
            Unix._exit status
        | pid -> pid)
      files
  in
  let client_failures =
    List.fold_left
      (fun acc pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> acc
        | _ -> acc + 1)
      0 pids
  in
  let wall = Unix.gettimeofday () -. t_start in
  Unix.kill server_pid Sys.sigterm;
  let drained =
    match Unix.waitpid [] server_pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let admitted_lat = ref [] in
  let degraded = ref 0
  and err = ref 0
  and busy = ref 0
  and violations = ref 0 in
  List.iter
    (fun file ->
      In_channel.with_open_text file (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> ()
            | Some line ->
                (match String.split_on_char ' ' line with
                | [ status; us ] -> (
                    let us = float_of_string_opt us in
                    match (status, us) with
                    | "ok", Some us -> admitted_lat := us :: !admitted_lat
                    | "degraded", Some us ->
                        incr degraded;
                        admitted_lat := us :: !admitted_lat
                    | "err", Some us ->
                        incr err;
                        admitted_lat := us :: !admitted_lat
                    | "busy", Some _ -> incr busy
                    | _ -> incr violations)
                | _ -> incr violations);
                go ()
          in
          go ());
      Sys.remove file)
    files;
  let sorted = Array.of_list !admitted_lat in
  Array.sort compare sorted;
  {
    nr_admitted = Array.length sorted;
    nr_degraded = !degraded;
    nr_err = !err;
    nr_busy = !busy;
    nr_violations = !violations;
    nr_rps = float_of_int (Array.length sorted) /. Float.max 1e-9 wall;
    nr_p50_us = percentile sorted 0.50;
    nr_p99_us = percentile sorted 0.99;
    nr_p999_us = percentile sorted 0.999;
    nr_drained = drained;
    nr_client_failures = client_failures;
  }

let net_bench cfg =
  banner "net"
    "multi-client TCP server: load shedding and latency under saturation";
  let initial_n = if cfg.smoke then 2_048 else 16_384 in
  let ops_len = if cfg.smoke then 120 else 500 in
  let show tag clients r =
    Printf.printf
      "  %-10s %d client(s): %6d admitted (%d degraded, %d err), %5d BUSY, \
       %d violation(s); %7.0f req/s; p50 %6.2f ms  p99 %6.2f ms  p999 %6.2f \
       ms  drain %s\n\
       %!"
      tag clients r.nr_admitted r.nr_degraded r.nr_err r.nr_busy
      r.nr_violations r.nr_rps (r.nr_p50_us /. 1e3) (r.nr_p99_us /. 1e3)
      (r.nr_p999_us /. 1e3)
      (if r.nr_drained then "clean" else "FORCED");
    List.iter
      (fun (what, us) ->
        record_point ~section:"net"
          ~name:(tag ^ "-" ^ what)
          ~n:clients ~algorithm:tag ~median_ns:(us *. 1e3) ())
      [ ("p50", r.nr_p50_us); ("p99", r.nr_p99_us); ("p999", r.nr_p999_us) ]
  in
  (* Baseline: enough workers for every client, nothing queues. *)
  let base =
    net_round ~tag:"1x" ~clients:2 ~domains:2 ~queue_depth:8 ~watermark:None
      ~initial_n ~ops_len ()
  in
  show "1x" 2 base;
  (* 2x saturation: 8 synchronous clients against a capacity of 4
     (2 domains in flight + 2 queued).  The server must shed the excess
     with BUSY while admitted latency stays bounded. *)
  let sat =
    net_round ~tag:"2x" ~clients:8 ~domains:2 ~queue_depth:2
      ~watermark:(Some 1) ~initial_n ~ops_len ()
  in
  show "2x" 8 sat;
  let verdict ok msg = Printf.printf "  %s: %s\n" (if ok then "PASS" else "WARN") msg in
  verdict (sat.nr_busy > 0)
    (Printf.sprintf "saturated server sheds with BUSY (%d shed)" sat.nr_busy);
  let ratio = sat.nr_p99_us /. Float.max 1e-9 base.nr_p99_us in
  verdict (ratio <= 3.)
    (Printf.sprintf "admitted p99 at 2x is %.2fx the unsaturated p99 (<= 3x)"
       ratio);
  verdict
    (base.nr_drained && sat.nr_drained)
    "both rounds drained cleanly on shutdown";
  verdict
    (base.nr_violations + sat.nr_violations = 0
    && base.nr_client_failures + sat.nr_client_failures = 0)
    "no protocol violations or client failures"

(* ------------------------------------------------------------------ *)
(* Self-monitoring: scrape cost against its own tick budget            *)
(* ------------------------------------------------------------------ *)

(* The scraper runs on the server's event loop, so its budget is the
   tick period itself: a 1 s tick spending under 3% of a second keeps
   self-monitoring invisible next to request work.  The registry here
   is shaped like a busy server's (labelled gauges, counters, per-kind
   latency histograms), history is grown past the retention horizon so
   the measured ticks pay retention filtering and engine-run compaction
   at steady state, and the overhead verdict is mean scrape time over
   the tick period. *)
let selfmon_bench cfg =
  banner "selfmon"
    "self-scraping: the registry as temporal relations, cost per 1 s tick";
  let registry = Obs.Metrics.create () in
  let gauges =
    Array.init 48 (fun i ->
        Obs.Metrics.gauge registry
          ~labels:[ ("shard", string_of_int i) ]
          "tempagg_bench_gauge")
  in
  let counters =
    Array.init 12 (fun i ->
        Obs.Metrics.counter registry
          ~labels:[ ("worker", string_of_int i) ]
          "tempagg_bench_total")
  in
  let kinds = [| "select"; "insert"; "delete"; "explain-analyze" |] in
  let hists =
    Array.map
      (fun k ->
        Obs.Metrics.histogram registry ~labels:[ ("kind", k) ]
          "tempagg_net_latency_us")
      kinds
  in
  let errs = Obs.Metrics.counter registry "tempagg_net_errors_total" in
  let config =
    {
      Selfmon.Scrape.default_config with
      tick_us = 1_000_000;
      retention_us = 120_000_000;
      raw_us = 60_000_000;
      compact_window_us = 10_000_000;
    }
  in
  let scraper = Selfmon.Scrape.create ~config registry in
  let rng = Random.State.make [| 42 |] in
  let drive_tick () =
    Array.iter
      (fun g -> Obs.Metrics.set g (Random.State.float rng 100.))
      gauges;
    Array.iter
      (fun c -> Obs.Metrics.add c (Random.State.float rng 50.))
      counters;
    Array.iter
      (fun h ->
        for _ = 1 to 8 do
          Obs.Histogram.observe h (50. +. Random.State.float rng 5000.)
        done)
      hists;
    Obs.Metrics.add errs (Random.State.float rng 2.)
  in
  (* Grow history past the retention horizon, then measure. *)
  let warmup = 130 and measured = if cfg.smoke then 30 else 60 in
  let now = ref 0 in
  let tick () =
    drive_tick ();
    now := !now + 1_000_000;
    Selfmon.Scrape.scrape ~now_us:!now scraper
  in
  for _ = 1 to warmup do
    tick ()
  done;
  let total = ref 0. and worst = ref 0. in
  for _ = 1 to measured do
    drive_tick ();
    now := !now + 1_000_000;
    let t0 = Unix.gettimeofday () in
    Selfmon.Scrape.scrape ~now_us:!now scraper;
    let dt = Unix.gettimeofday () -. t0 in
    total := !total +. dt;
    if dt > !worst then worst := dt
  done;
  let mean_s = !total /. float_of_int measured in
  let m_rows, r_rows = Selfmon.Scrape.row_counts scraper in
  (* What querying the self-relations costs once history is at steady
     state — the price a SHOW SLO evaluation or an operator's ad-hoc
     AVG pays. *)
  let catalog = Selfmon.Scrape.catalog scraper in
  let query_cost q =
    let t0 = Unix.gettimeofday () in
    (match Tsql.Eval.query ~adaptive:false catalog q with
    | Ok _ -> ()
    | Error msg -> Printf.printf "  (query failed: %s)\n" msg);
    Unix.gettimeofday () -. t0
  in
  let avg_cost =
    query_cost
      (Printf.sprintf
         "SELECT AVG(value) FROM _metrics DURING [%d,%d] WHERE name = \
          'tempagg_bench_gauge'"
         (!now - 60_000_000) !now)
  in
  let group_cost =
    query_cost
      "SELECT kind, outcome, AVG(rate) FROM _requests GROUP BY kind, outcome"
  in
  let overhead_pct = mean_s /. 1.0 *. 100. in
  Printf.printf
    "%d series, %d scrape(s) at steady state (%d + %d history rows, %d \
     compaction(s))\n"
    (Array.length gauges + Array.length counters + Array.length hists + 1)
    measured m_rows r_rows
    (Selfmon.Scrape.compactions scraper);
  Report.Table.print
    ~headers:[ "cost"; "seconds"; "share of a 1 s tick" ]
    [
      [
        "scrape tick (mean)";
        Printf.sprintf "%.6f" mean_s;
        Printf.sprintf "%.3f%%" overhead_pct;
      ];
      [
        "scrape tick (worst)";
        Printf.sprintf "%.6f" !worst;
        Printf.sprintf "%.3f%%" (!worst *. 100.);
      ];
      [ "AVG over 60 s of _metrics"; Printf.sprintf "%.6f" avg_cost; "-" ];
      [ "GROUP BY over _requests"; Printf.sprintf "%.6f" group_cost; "-" ];
    ];
  record_point ~section:"selfmon" ~name:"scrape-tick" ~n:m_rows
    ~algorithm:"scrape" ~median_ns:(mean_s *. 1e9) ();
  let verdict ok msg =
    Printf.printf "  %s: %s\n" (if ok then "PASS" else "WARN") msg
  in
  verdict (overhead_pct < 3.)
    (Printf.sprintf "mean scrape overhead %.3f%% of the tick budget (< 3%%)"
       overhead_pct);
  verdict
    (Selfmon.Scrape.compactions scraper > 0)
    "measured ticks included engine-run compaction"

let micro () =
  banner "micro" "bechamel micro-benchmarks (4096 tuples, ns per evaluation)";
  let open Bechamel in
  let n = 4_096 in
  let sp = spec ~n ~long:0. ~seed:1 in
  let random = Workload.Generate.random_intervals sp in
  let sorted = Workload.Generate.sorted_intervals sp in
  let kordered =
    Workload.Generate.k_ordered_intervals ~k:40 ~percentage:0.02 sp
  in
  let bench name algorithm data =
    Test.make ~name
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Tempagg.Engine.eval algorithm Tempagg.Monoid.count
                (count_data data))))
  in
  let tests =
    Test.make_grouped ~name:"tempagg"
      [
        (* One per experiment family: Figure 6 uses random order ... *)
        bench "fig6/aggregation-tree" Tempagg.Engine.Aggregation_tree random;
        bench "fig6/linked-list" Tempagg.Engine.Linked_list random;
        bench "fig6/two-scan" Tempagg.Engine.Two_scan random;
        bench "fig6/balanced-tree" Tempagg.Engine.Balanced_tree random;
        (* ... Figures 7/8/9 use sorted and k-ordered input. *)
        bench "fig7/ktree-k1-sorted"
          (Tempagg.Engine.Korder_tree { k = 1 })
          sorted;
        bench "fig7/ktree-k40" (Tempagg.Engine.Korder_tree { k = 40 }) kordered;
        bench "fig7/tree-sorted" Tempagg.Engine.Aggregation_tree sorted;
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg_b = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg_b [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> Printf.sprintf "%.0f" e
          | _ -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        [ name; est; r2 ] :: acc)
      results []
  in
  Report.Table.print
    ~headers:[ "benchmark"; "ns/run"; "r^2" ]
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let cfg = parse_args () in
  if cfg.compare_only then begin
    (* Compare two existing result files without running anything:
       --json NEW --compare OLD --compare-only. *)
    match (cfg.json, cfg.compare_with) with
    | Some new_path, Some old_path ->
        let new_records =
          Hashtbl.fold
            (fun key v acc -> (key, v) :: acc)
            (load_results new_path) []
        in
        let regressions =
          compare_results ~threshold:cfg.compare_threshold ~old_path
            new_records
        in
        exit (if regressions > 0 then 3 else 0)
    | _ ->
        prerr_endline "--compare-only needs both --json NEW and --compare OLD";
        exit 2
  end;
  Printf.printf "tempagg bench — reproduction of Kline & Snodgrass (ICDE 1995)\n";
  Printf.printf
    "sizes up to %d tuples, quadratic algorithms capped at %d, %d seed(s) \
     per point\n"
    cfg.max_size cfg.cap_quadratic cfg.repeats;
  let t0 = Sys.time () in
  let run name f = if enabled cfg name then f () in
  run "table1" table1;
  run "table2" table2;
  run "table3" (fun () -> table3 cfg);
  run "fig6" (fun () -> fig6 cfg);
  run "fig7" (fun () -> fig7 cfg);
  run "fig8" (fun () -> fig8 cfg);
  run "fig9" (fun () -> fig9 cfg);
  run "fig9_longlived" (fun () -> fig9_longlived cfg);
  run "sweep" (fun () -> sweep_bench cfg);
  run "live" (fun () -> live_bench cfg);
  run "optimizer" optimizer;
  run "guard" (fun () -> guard_bench cfg);
  run "obs" (fun () -> obs_bench cfg);
  run "adaptive" (fun () -> adaptive_bench cfg);
  run "ablation_balanced" (fun () -> ablation_balanced cfg);
  run "ablation_span" (fun () -> ablation_span cfg);
  run "ablation_unique" (fun () -> ablation_unique cfg);
  run "ablation_paged" (fun () -> ablation_paged cfg);
  run "ablation_pagerand" (fun () -> ablation_pagerand cfg);
  run "storage_io" (fun () -> storage_io cfg);
  run "shard" (fun () -> shard_bench cfg);
  run "join" (fun () -> join_bench cfg);
  run "net" (fun () -> net_bench cfg);
  run "selfmon" (fun () -> selfmon_bench cfg);
  run "micro" micro;
  write_json cfg;
  Printf.printf "\ntotal CPU time: %.1fs\n" (Sys.time () -. t0);
  match cfg.compare_with with
  | None -> ()
  | Some old_path ->
      let new_records =
        List.rev_map
          (fun r ->
            ((r.jr_section, r.jr_name, r.jr_n, r.jr_algorithm), r.jr_median_ns))
          !json_records
      in
      let regressions =
        compare_results ~threshold:cfg.compare_threshold ~old_path new_records
      in
      if regressions > 0 then exit 3
