(* Process-wide join counters, Atomic because joins run inside the
   TCP server's session domains.  [to_metrics] refreshes gauges in a
   registry on demand (the server's scrape-time refresh), mirroring how
   partition pruning totals are exposed. *)

let sweep_joins = Atomic.make 0
let nested_joins = Atomic.make 0
let pairs_emitted = Atomic.make 0
let fallbacks = Atomic.make 0

let record ~strategy ~pairs =
  (match strategy with
  | Engine.Sweep -> Atomic.incr sweep_joins
  | Engine.Nested_loop -> Atomic.incr nested_joins);
  ignore (Atomic.fetch_and_add pairs_emitted pairs)

let record_fallback () = Atomic.incr fallbacks

let totals () =
  ( Atomic.get sweep_joins,
    Atomic.get nested_joins,
    Atomic.get pairs_emitted,
    Atomic.get fallbacks )

let reset () =
  Atomic.set sweep_joins 0;
  Atomic.set nested_joins 0;
  Atomic.set pairs_emitted 0;
  Atomic.set fallbacks 0

let to_metrics registry =
  let sweep, nested, pairs, fb = totals () in
  let gauge ?labels help name =
    Obs.Metrics.gauge registry ~help ?labels name
  in
  Obs.Metrics.set_int
    (gauge "Interval joins executed, by strategy"
       ~labels:[ ("strategy", "sweep") ]
       "tempagg_join_total")
    sweep;
  Obs.Metrics.set_int
    (gauge "Interval joins executed, by strategy"
       ~labels:[ ("strategy", "nested-loop") ]
       "tempagg_join_total")
    nested;
  Obs.Metrics.set_int
    (gauge "Tuple pairs emitted by interval joins" "tempagg_join_pairs_total")
    pairs;
  Obs.Metrics.set_int
    (gauge "Sweep joins degraded to nested-loop by Guard budgets"
       "tempagg_join_fallbacks_total")
    fb
