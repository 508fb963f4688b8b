(* The four workloads: which relations the server holds, what each of the
   two connections sends, and the generator's own model of the data that
   the answer checks evaluate against.

   Everything is a function of the seed: the relations (through
   [Workload.Generate], the paper's Section 6 generator) and every
   statement stream (one splitmix stream per connection).  Two processes
   that call these functions with the same seed see the same data, which
   is how the server child builds its catalog without being sent it. *)

open Relation
module Prng = Workload.Prng

type relation = {
  rname : string;
  n : int;
  lifespan : int;
  long_fraction : float;
  shards : int;
      (* 0: an in-memory catalog relation; otherwise a time-partitioned
         directory of this many equal-width range shards, bound through
         the server's [partitions] config. *)
}

type write =
  | Insert of { rel : string; id : int; salary : int; a : int; b : int }
  | Delete of { rel : string; id : int }

type stmt = { cls : string; text : string; write : write option }

(* [think_s] is the fixed pause after each reply; [next] draws the timed
   stream and [warmup] the untimed read-only one (warm-up must not write,
   so repeated set-ups of one run see the same on-disk state). *)
type conn = { think_s : float; next : unit -> stmt; warmup : unit -> stmt }

type t = { name : string; relations : relation list; scrape_ms : int option }

let schema =
  Schema.of_pairs [ ("id", Value.Tint); ("salary", Value.Tint) ]

let rel ?(long_fraction = 0.) ?(shards = 0) rname n lifespan =
  { rname; n; lifespan; long_fraction; shards }

(* The largest relation with tiny replies (~30 rows): planning, scan,
   shard pruning and the engine. *)
let dashboard =
  {
    name = "dashboard";
    relations = [ rel ~shards:64 "readings" 250_000 25_000_000 ];
    scrape_ms = None;
  }

(* Replies of 5k-45k rows: formatting, framing and the reply write. *)
let export =
  { name = "export"; relations = [ rel "ledger" 25_000 1_000_000 ]; scrape_ms = None }

(* The only writes: shard rewrites and re-materialisation, and a reader
   beside a writer. *)
let ingest =
  {
    name = "ingest";
    relations = [ rel ~shards:32 "events" 100_000 10_000_000 ];
    scrape_ms = None;
  }

(* Join, long-lived tuples (paper Table 3's 40%) and the self-scrape
   tick. *)
let analytics =
  {
    name = "analytics";
    relations =
      [
        rel ~long_fraction:0.4 "r" 50_000 1_000_000;
        rel "a" 40_000 1_000_000;
        rel "b" 10_000 1_000_000;
      ];
    scrape_ms = Some 1000;
  }

let all = [ dashboard; export; ingest; analytics ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [--smoke] shrinks sizes and lifespans together, so densities (and with
   them the shape of every reply) stay those of the full run. *)
let scaled ~scale r =
  if scale >= 1. then r
  else
    {
      r with
      n = max 200 (int_of_float (float_of_int r.n *. scale));
      lifespan = max 20_000 (int_of_float (float_of_int r.lifespan *. scale));
    }

let relations ~scale w = List.map (scaled ~scale) w.relations

let boundaries r =
  List.init (r.shards - 1) (fun i -> (i + 1) * (r.lifespan / r.shards))

let relation_seed ~seed r = (seed * 1_000_003) + Hashtbl.hash r.rname

(* Tuple [i] has id [i]; intervals and salaries are the generator's, in
   its random physical order (so no plan gets a time-ordered input for
   free). *)
let tuples ~seed r =
  let spec =
    Workload.Spec.make ~n:r.n ~lifespan:r.lifespan
      ~long_lived_fraction:r.long_fraction ~seed:(relation_seed ~seed r) ()
  in
  Array.mapi
    (fun i (iv, salary) -> Tuple.make [| Value.Int i; Value.Int salary |] iv)
    (Workload.Generate.random_intervals spec)

let trel ~seed r = Trel.of_array schema (tuples ~seed r)

(* Bulk load: route every tuple to its shard and write each shard once. *)
let write_partition ~seed ~dir r =
  let p = Storage.Partition.create ~boundaries:(boundaries r) ~dir schema in
  Array.iter (Storage.Partition.insert p) (tuples ~seed r);
  Storage.Partition.flush p

(* ---- statement streams ---- *)

let window prng ~lifespan width =
  let a = Prng.int_bounded prng (max 1 (lifespan - width + 1)) in
  (a, a + width - 1)

let read cls text = { cls; text; write = None }

(* Statements are dealt from a shuffled deck holding each class in exact
   proportion to its weight (percentages, reduced by their gcd), so every
   run's class mix is the declared one up to one partial deck and only the
   windows vary.  With a few hundred statements per run, drawing each
   class at random would move throughput and tail latency by more than
   the bounds this benchmark can hold. *)
let dealer prng mix =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = List.fold_left (fun g (w, _) -> gcd g w) 0 mix in
  let deck =
    Array.of_list (List.concat_map (fun (w, f) -> List.init (w / g) (fun _ -> f)) mix)
  in
  let next = ref (Array.length deck) in
  fun () ->
    if !next = Array.length deck then begin
      for i = Array.length deck - 1 downto 1 do
        let j = Prng.int_bounded prng (i + 1) in
        let x = deck.(i) in
        deck.(i) <- deck.(j);
        deck.(j) <- x
      done;
      next := 0
    end;
    let f = deck.(!next) in
    incr next;
    f prng

let windowed cls fmt (r : relation) width p =
  let a, b = window p ~lifespan:r.lifespan width in
  read cls (Printf.sprintf fmt r.rname a b)

let count_1k = windowed "count-1k" "SELECT COUNT(id) FROM %s DURING [%d,%d]"
let sum_10k = windowed "sum-10k" "SELECT SUM(salary) FROM %s DURING [%d,%d]"
let max_10k = windowed "max-10k" "SELECT MAX(salary) FROM %s DURING [%d,%d]"

let avg_span_100k =
  windowed "avg-span"
    "SELECT AVG(salary) FROM %s DURING [%d,%d] GROUP BY SPAN 1000"

let dashboard_reads r =
  [
    (60, fun p -> count_1k r 1_000 p);
    (20, fun p -> sum_10k r 10_000 p);
    (10, fun p -> max_10k r 10_000 p);
    (10, fun p -> avg_span_100k r 100_000 p);
  ]

let export_reads (r : relation) =
  [
    (80, windowed "count-100k" "SELECT COUNT(id) FROM %s DURING [%d,%d]" r 100_000);
    ( 20,
      fun _ ->
        read "sum-all" (Printf.sprintf "SELECT SUM(salary) FROM %s" r.rname) );
  ]

let analytics_reads ~(r : relation) ~(a : relation) ~(b : relation) =
  [
    ( 35,
      fun p ->
        let x, y = window p ~lifespan:a.lifespan 100_000 in
        read "join-100k"
          (Printf.sprintf
             "SELECT COUNT(*) FROM %s JOIN %s ON %s.vt OVERLAPS %s.vt DURING \
              [%d,%d]"
             a.rname b.rname a.rname b.rname x y) );
    ( 25,
      fun _ ->
        read "avg-span"
          (Printf.sprintf "SELECT AVG(salary) FROM %s GROUP BY SPAN 10000"
             r.rname) );
    (25, windowed "max-50k" "SELECT MAX(salary) FROM %s DURING [%d,%d]" r 50_000);
    ( 15,
      fun _ ->
        read "requests"
          (Printf.sprintf "SELECT kind, AVG(p99_us) FROM %s GROUP BY kind"
             Selfmon.Scrape.requests_name) );
  ]

(* The ingest writer: 20% inserts of fresh short-lived tuples, 5% deletes
   of a tuple that is live at that point of the stream, 75% reads in the
   dashboard's proportions.  Live ids are tracked in a swap-remove pool
   so a delete always hits. *)
let writer (r : relation) =
  let pool = ref (Array.init (r.n + 1024) Fun.id) in
  let live = ref r.n in
  let next_id = ref r.n in
  let insert p =
    let id = !next_id in
    incr next_id;
    if !live = Array.length !pool then
      pool := Array.append !pool (Array.make (Array.length !pool) 0);
    !pool.(!live) <- id;
    incr live;
    let a = Prng.int_bounded p (r.lifespan - 1_000) in
    let b = a + Prng.int_in p ~lo:1 ~hi:1_000 - 1 in
    let salary = Prng.int_in p ~lo:20_000 ~hi:60_000 in
    {
      cls = "insert";
      text =
        Printf.sprintf "INSERT INTO %s VALUES (%d, %d) DURING [%d,%d]" r.rname
          id salary a b;
      write = Some (Insert { rel = r.rname; id; salary; a; b });
    }
  in
  let delete p =
    let i = Prng.int_bounded p !live in
    let id = !pool.(i) in
    decr live;
    !pool.(i) <- !pool.(!live);
    {
      cls = "delete";
      text = Printf.sprintf "DELETE FROM %s WHERE id = %d" r.rname id;
      write = Some (Delete { rel = r.rname; id });
    }
  in
  [
    (20, insert);
    (5, delete);
    (45, fun p -> count_1k r 1_000 p);
    (15, fun p -> sum_10k r 10_000 p);
    (8, fun p -> max_10k r 10_000 p);
    (7, fun p -> avg_span_100k r 100_000 p);
  ]

(* Fresh streams for one server lifetime: calling this again replays the
   same statements.  Warm-up is dealt from the read mix on its own
   stream. *)
let conns ~seed ~scale w =
  let rels = relations ~scale w in
  let rel name = List.find (fun r -> r.rname = name) rels in
  let prng i k = Prng.create ~seed:((seed * 7919) + (i * 104_729) + k) in
  let conn ?(think_s = 0.) i ~reads mix =
    { think_s; next = dealer (prng i 1) mix; warmup = dealer (prng i 2) reads }
  in
  let closed i reads = conn i ~reads reads in
  match w.name with
  | "dashboard" ->
      let reads = dashboard_reads (rel "readings") in
      [| closed 0 reads; closed 1 reads |]
  | "export" ->
      let reads = export_reads (rel "ledger") in
      [| closed 0 reads; closed 1 reads |]
  | "ingest" ->
      let events = rel "events" in
      let reads = dashboard_reads events in
      [| conn 0 ~reads (writer events); conn ~think_s:0.05 1 ~reads reads |]
  | "analytics" ->
      let reads = analytics_reads ~r:(rel "r") ~a:(rel "a") ~b:(rel "b") in
      [| closed 0 reads; closed 1 reads |]
  | other -> invalid_arg ("Mix.conns: unknown workload " ^ other)

(* ---- the generator's model, for answer checks ---- *)

(* The in-memory relations of the model catalog, with the writes seen so
   far on one connection applied (connections' writes are private to
   their sessions, so each connection is checked against its own
   history). *)
type model = {
  base : (string * Trel.t) list;
  mutable applied : (string * (int, Tuple.t) Hashtbl.t) list;
}

let model ~seed ~scale w =
  {
    base = List.map (fun r -> (r.rname, trel ~seed r)) (relations ~scale w);
    applied = [];
  }

let apply m write =
  let rel = match write with Insert { rel; _ } | Delete { rel; _ } -> rel in
  let tbl =
    match List.assoc_opt rel m.applied with
    | Some t -> t
    | None ->
        let base = List.assoc rel m.base in
        let t = Hashtbl.create (Trel.cardinality base * 2) in
        Trel.iter
          (fun tu ->
            match Tuple.value tu 0 with
            | Value.Int id -> Hashtbl.replace t id tu
            | _ -> ())
          base;
        m.applied <- (rel, t) :: m.applied;
        t
  in
  match write with
  | Insert { id; salary; a; b; _ } ->
      Hashtbl.replace tbl id
        (Tuple.make
           [| Value.Int id; Value.Int salary |]
           (Temporal.Interval.of_ints a b))
  | Delete { id; _ } -> Hashtbl.remove tbl id

let catalog m =
  List.fold_left
    (fun cat (name, rel) ->
      let rel =
        match List.assoc_opt name m.applied with
        | None -> rel
        | Some t ->
            Trel.create schema (Hashtbl.fold (fun _ tu acc -> tu :: acc) t [])
      in
      Tsql.Catalog.add cat name rel)
    (Tsql.Catalog.create ()) m.base
