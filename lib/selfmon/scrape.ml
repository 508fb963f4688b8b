(* The self-monitoring scraper: the metrics registry persisted as
   temporal relations.

   Each tick walks the registry (via the structured sample API, never
   the text exposition) and appends one closed-interval tuple per
   series to the system relations:

     _metrics  (name, labels, value)           counters delta-encoded
                                               into per-second rates,
                                               gauges stored as-is
     _requests (kind, outcome, rate,           per statement kind, from
                p50_us, p99_us)                the per-kind latency
                                               histograms (bucket-count
                                               deltas) and the error
                                               counters

   A sample taken at t_i is valid over [t_i, t_{i+1} - 1] — it is the
   registry's state until the next scrape, which is exactly the paper's
   interval-stamped data model, so the engine's own temporal aggregates
   answer questions about the server ("AVG queue depth over the last
   minute") with no new evaluation machinery.

   History is bounded two ways.  Retention drops tuples older than the
   horizon outright.  Before that, tuples older than the raw window are
   {e downsampled}: re-aggregated to coarse fixed windows by running
   the engine itself (GROUP BY series, SPAN w), one AVG tuple per
   (series, window).  Rows straddling the compaction boundary are split
   at it first — the boundary is span-aligned, so the split moves each
   part into a different window and every SPAN-w arithmetic-mean
   aggregate is preserved exactly: compaction correctness is a
   temporal-aggregate equivalence, tested as such. *)

open Temporal
open Relation

type config = {
  tick_us : int;
  retention_us : int;
  raw_us : int;
  compact_window_us : int;
  latency_families : string list;
  error_families : string list;
}

let default_config =
  {
    tick_us = 1_000_000;
    retention_us = 3_600_000_000;
    raw_us = 300_000_000;
    compact_window_us = 60_000_000;
    latency_families = [ "tempagg_net_latency_us" ];
    error_families = [ "tempagg_net_errors_total" ];
  }

let metrics_name = "_metrics"
let requests_name = "_requests"

let metrics_schema =
  Schema.of_pairs
    [ ("name", Value.Tstring); ("labels", Value.Tstring); ("value", Value.Tfloat) ]

let requests_schema =
  Schema.of_pairs
    [
      ("kind", Value.Tstring);
      ("outcome", Value.Tstring);
      ("rate", Value.Tfloat);
      ("p50_us", Value.Tfloat);
      ("p99_us", Value.Tfloat);
    ]

(* Previous-tick state per series, for delta encoding. *)
type prev = {
  mutable p_value : float;  (* counter value *)
  mutable p_count : int;  (* histogram observation count *)
  mutable p_buckets : (float * int) list;  (* histogram bucket counts *)
}

type t = {
  cfg : config;
  registry : Obs.Metrics.t;
  prevs : (string * (string * string) list, prev) Hashtbl.t;
  mutable last_us : int option;
  mutable metrics_rows : Tuple.t list;  (* newest first *)
  mutable requests_rows : Tuple.t list;  (* newest first *)
  mutable compacted_until : int;  (* span-aligned downsampling watermark *)
  mutable version : int;  (* bumped whenever the relations change *)
  mutable ticks : int;
  mutable compactions : int;
  mutable cached : (int * Trel.t * Trel.t) option;
      (* (version, _metrics, _requests) — one materialization per change *)
}

let create ?(config = default_config) registry =
  if config.tick_us <= 0 then invalid_arg "Scrape.create: tick_us must be > 0";
  if config.compact_window_us <= 0 then
    invalid_arg "Scrape.create: compact_window_us must be > 0";
  {
    cfg = config;
    registry;
    prevs = Hashtbl.create 64;
    last_us = None;
    metrics_rows = [];
    requests_rows = [];
    compacted_until = 0;
    version = 0;
    ticks = 0;
    compactions = 0;
    cached = None;
  }

let config t = t.cfg
let version t = t.version
let ticks t = t.ticks
let compactions t = t.compactions

let next_due_us t =
  match t.last_us with None -> 0 | Some last -> last + t.cfg.tick_us

let due t ~now_us = now_us >= next_due_us t

(* Label sets render as the exposition's inner form (sorted, escaped),
   so a WHERE labels = '...' predicate matches what METRICS shows. *)
let labels_string labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) labels)

(* Nearest-rank percentile over this interval's (bound, count) bucket
   deltas — same rounding as Obs.Histogram.percentile, so a scrape of a
   histogram that only grew during the interval reports the same
   estimate the registry would. *)
let percentile_of_deltas deltas total p =
  if total = 0 then None
  else begin
    let rank =
      let r = int_of_float ((p *. float_of_int (total - 1)) +. 0.5) in
      min (total - 1) (max 0 r)
    in
    let rec walk seen = function
      | [] -> None
      | (bound, count) :: rest ->
          if seen + count > rank then Some bound else walk (seen + count) rest
    in
    walk 0 deltas
  end

let bucket_deltas ~prev buckets =
  List.map
    (fun (bound, count) ->
      let before =
        match List.assoc_opt bound prev with Some c -> c | None -> 0
      in
      (bound, max 0 (count - before)))
    buckets

let find_prev t key = Hashtbl.find_opt t.prevs key

let store_prev t key ~value ~count ~buckets =
  match Hashtbl.find_opt t.prevs key with
  | Some p ->
      p.p_value <- value;
      p.p_count <- count;
      p.p_buckets <- buckets
  | None ->
      Hashtbl.replace t.prevs key
        { p_value = value; p_count = count; p_buckets = buckets }

(* ---- one tick ---- *)

let fnum v = Value.Float v

let tick ?now_us t =
  let now = match now_us with Some n -> n | None -> Obs.Trace.now_us () in
  let samples = Obs.Metrics.samples t.registry in
  (match t.last_us with
  | Some last when now > last ->
      let iv = Interval.of_ints last (now - 1) in
      let dt_s = float_of_int (now - last) /. 1e6 in
      let metric_rows = ref [] and request_rows = ref [] in
      List.iter
        (fun (s : Obs.Metrics.sample) ->
          let key = (s.Obs.Metrics.s_name, s.Obs.Metrics.s_labels) in
          (match s.Obs.Metrics.s_kind with
          | Obs.Metrics.Gauge ->
              metric_rows :=
                Tuple.make
                  [|
                    Value.Str s.Obs.Metrics.s_name;
                    Value.Str (labels_string s.Obs.Metrics.s_labels);
                    fnum s.Obs.Metrics.s_value;
                  |]
                  iv
                :: !metric_rows
          | Obs.Metrics.Counter ->
              let before =
                match find_prev t key with Some p -> p.p_value | None -> 0.
              in
              let rate =
                Float.max 0. (s.Obs.Metrics.s_value -. before) /. dt_s
              in
              metric_rows :=
                Tuple.make
                  [|
                    Value.Str s.Obs.Metrics.s_name;
                    Value.Str (labels_string s.Obs.Metrics.s_labels);
                    fnum rate;
                  |]
                  iv
                :: !metric_rows;
              if
                List.mem s.Obs.Metrics.s_name t.cfg.error_families
              then
                let kind =
                  match List.assoc_opt "kind" s.Obs.Metrics.s_labels with
                  | Some k -> k
                  | None -> "_all"
                in
                request_rows :=
                  Tuple.make
                    [|
                      Value.Str kind;
                      Value.Str "error";
                      fnum rate;
                      Value.Null;
                      Value.Null;
                    |]
                    iv
                  :: !request_rows
          | Obs.Metrics.Histogram ->
              if List.mem s.Obs.Metrics.s_name t.cfg.latency_families then
                match List.assoc_opt "kind" s.Obs.Metrics.s_labels with
                | None -> ()
                | Some kind ->
                    let prev_buckets, prev_count =
                      match find_prev t key with
                      | Some p -> (p.p_buckets, p.p_count)
                      | None -> ([], 0)
                    in
                    let deltas =
                      bucket_deltas ~prev:prev_buckets s.Obs.Metrics.s_buckets
                    in
                    let total = max 0 (s.Obs.Metrics.s_count - prev_count) in
                    let pct p =
                      match percentile_of_deltas deltas total p with
                      | Some v -> fnum v
                      | None -> Value.Null
                    in
                    request_rows :=
                      Tuple.make
                        [|
                          Value.Str kind;
                          Value.Str "ok";
                          fnum (float_of_int total /. dt_s);
                          pct 0.5;
                          pct 0.99;
                        |]
                        iv
                      :: !request_rows);
          store_prev t key ~value:s.Obs.Metrics.s_value
            ~count:s.Obs.Metrics.s_count ~buckets:s.Obs.Metrics.s_buckets)
        samples;
      t.metrics_rows <- !metric_rows @ t.metrics_rows;
      t.requests_rows <- !request_rows @ t.requests_rows
  | _ ->
      (* First tick (or a clock that has not advanced): record the
         baseline, emit nothing — a delta needs two observations. *)
      List.iter
        (fun (s : Obs.Metrics.sample) ->
          store_prev t
            (s.Obs.Metrics.s_name, s.Obs.Metrics.s_labels)
            ~value:s.Obs.Metrics.s_value ~count:s.Obs.Metrics.s_count
            ~buckets:s.Obs.Metrics.s_buckets)
        samples);
  t.last_us <- Some now;
  t.ticks <- t.ticks + 1;
  t.version <- t.version + 1;
  t.cached <- None

(* ---- downsampling and retention ---- *)

let time_sorted rows = List.sort Tuple.compare_by_time rows

(* Re-aggregate a history relation to fixed windows through the engine
   itself: AVG per value column, grouped by the series columns and
   SPAN w.  This is the downsampling step of compaction — correctness
   is exactly the SPAN-w aggregate-equivalence property. *)
let downsample ~window_us ~groups ~values rel =
  if Trel.cardinality rel = 0 then Ok rel
  else
    let q =
      Printf.sprintf "SELECT %s, %s FROM history GROUP BY %s, SPAN %d"
        (String.concat ", " groups)
        (String.concat ", " (List.map (fun c -> "AVG(" ^ c ^ ")") values))
        (String.concat ", " groups)
        window_us
    in
    match
      Tsql.Eval.query ~adaptive:false
        (Tsql.Catalog.add (Tsql.Catalog.create ()) "history" rel)
        q
    with
    | Error _ as e -> e
    | Ok res ->
        (* Rebuild under the history schema: same column order (series
           columns first, then the aggregates), aggregate columns renamed
           back to their sources. *)
        Ok
          (Trel.create (Trel.schema rel)
             (List.map
                (fun tu -> Tuple.make (Tuple.values tu) (Tuple.valid tu))
                (Trel.tuples res)))

(* Split every row straddling the (span-aligned) boundary: the part
   before feeds compaction, the part after stays raw.  Splitting at a
   span boundary moves the parts into different windows without
   changing any window's tuple multiset, so SPAN aggregates are
   untouched. *)
let split_at boundary rows =
  List.fold_left
    (fun (old_rows, recent) tu ->
      let iv = Tuple.valid tu in
      let start = Chronon.to_int (Interval.start iv) in
      let stop = Chronon.to_int (Interval.stop iv) in
      if stop < boundary then (tu :: old_rows, recent)
      else if start >= boundary then (old_rows, tu :: recent)
      else
        ( Tuple.with_valid tu (Interval.of_ints start (boundary - 1)) :: old_rows,
          Tuple.with_valid tu
            (Interval.make (Chronon.of_int boundary) (Interval.stop iv))
          :: recent ))
    ([], []) rows

let compact_side schema ~groups ~values ~window_us ~boundary rows =
  let old_rows, recent = split_at boundary rows in
  if old_rows = [] then rows
  else
    match
      downsample ~window_us ~groups ~values
        (Trel.create schema (time_sorted old_rows))
    with
    | Error _ -> rows  (* keep raw history; retry at the next boundary *)
    | Ok compacted -> List.rev_append (Trel.tuples compacted) recent

let enforce_bounds t ~now_us =
  let changed = ref false in
  (* Retention: drop whole tuples past the horizon. *)
  let horizon = now_us - t.cfg.retention_us in
  if horizon > 0 then begin
    let keep tu = Chronon.to_int (Interval.stop (Tuple.valid tu)) >= horizon in
    let m = List.filter keep t.metrics_rows in
    let r = List.filter keep t.requests_rows in
    if
      List.length m <> List.length t.metrics_rows
      || List.length r <> List.length t.requests_rows
    then begin
      t.metrics_rows <- m;
      t.requests_rows <- r;
      changed := true
    end
  end;
  (* Downsampling: everything older than the raw window is re-aggregated
     to compact windows, at most once per boundary advance. *)
  let boundary =
    (now_us - t.cfg.raw_us) / t.cfg.compact_window_us * t.cfg.compact_window_us
  in
  if boundary > t.compacted_until then begin
    t.compacted_until <- boundary;
    t.metrics_rows <-
      compact_side metrics_schema ~groups:[ "name"; "labels" ]
        ~values:[ "value" ] ~window_us:t.cfg.compact_window_us ~boundary
        t.metrics_rows;
    t.requests_rows <-
      compact_side requests_schema ~groups:[ "kind"; "outcome" ]
        ~values:[ "rate"; "p50_us"; "p99_us" ]
        ~window_us:t.cfg.compact_window_us ~boundary t.requests_rows;
    t.compactions <- t.compactions + 1;
    changed := true
  end;
  if !changed then begin
    t.version <- t.version + 1;
    t.cached <- None
  end

(* Scrape's own instruments, folded into the registry it scrapes — the
   next tick records them like any other series. *)
let to_metrics t =
  let r = t.registry in
  Obs.Metrics.set_int
    (Obs.Metrics.gauge r ~help:"Scraped history rows by system relation"
       ~labels:[ ("relation", metrics_name) ]
       "tempagg_scrape_rows")
    (List.length t.metrics_rows);
  Obs.Metrics.set_int
    (Obs.Metrics.gauge r ~help:"Scraped history rows by system relation"
       ~labels:[ ("relation", requests_name) ]
       "tempagg_scrape_rows")
    (List.length t.requests_rows);
  Obs.Metrics.set_int
    (Obs.Metrics.gauge r ~help:"Scrape ticks taken" "tempagg_scrape_ticks")
    t.ticks;
  Obs.Metrics.set_int
    (Obs.Metrics.gauge r ~help:"Downsampling compactions run"
       "tempagg_scrape_compactions")
    t.compactions

let scrape ?now_us t =
  let now = match now_us with Some n -> n | None -> Obs.Trace.now_us () in
  tick ~now_us:now t;
  enforce_bounds t ~now_us:now;
  to_metrics t

let materialize t =
  match t.cached with
  | Some (v, m, r) when v = t.version -> (m, r)
  | _ ->
      let m = Trel.create metrics_schema (time_sorted t.metrics_rows) in
      let r = Trel.create requests_schema (time_sorted t.requests_rows) in
      t.cached <- Some (t.version, m, r);
      (m, r)

let metrics_relation t = fst (materialize t)
let requests_relation t = snd (materialize t)

let register t catalog =
  let m, r = materialize t in
  Tsql.Catalog.add (Tsql.Catalog.add catalog metrics_name m) requests_name r

let catalog t = register t (Tsql.Catalog.create ())

let row_counts t =
  (List.length t.metrics_rows, List.length t.requests_rows)
