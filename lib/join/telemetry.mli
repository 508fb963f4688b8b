(** Process-wide interval-join counters ([tempagg_join_*]), refreshed
    into the network server's registry with its other scrape-time
    gauges. *)

val record : strategy:Engine.strategy -> pairs:int -> unit
val record_fallback : unit -> unit

val totals : unit -> int * int * int * int
(** [(sweep_joins, nested_joins, pairs_emitted, fallbacks)]. *)

val reset : unit -> unit

val to_metrics : Obs.Metrics.t -> unit
