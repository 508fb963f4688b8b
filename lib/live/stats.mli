(** Shared counters for the live subsystem.

    One mutable record, threadable through any number of {!View}s and
    {!Cache}s so a session reports a single rollup:
    maintenance work on the write path (inserts, deletes, segments
    patched, lazy rebuilds, tombstones pending a rebuild) and cache
    behaviour on the read path (hits, misses, precise invalidations,
    capacity evictions). *)

type t = {
  mutable inserts : int;  (** Tuples inserted into views. *)
  mutable deletes : int;  (** Tuples retired from views. *)
  mutable patched_segments : int;
      (** Constant intervals touched by incremental patches — the [c] in
          the O(log n + c) per-write bound. *)
  mutable rebuilds : int;
      (** Full batch re-evaluations (bulk loads, non-invertible deletes,
          explicit refreshes). *)
  mutable pending_tombstones : int;
      (** Deletes absorbed as tombstones, awaiting the next lazy rebuild
          (min/max, which have no monoid inverse). *)
  mutable snapshots : int;  (** Versioned snapshot reads served. *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_invalidations : int;
      (** Entries dropped because a write overlapped their interval. *)
  mutable cache_evictions : int;  (** Entries dropped by FIFO capacity. *)
}

val create : unit -> t
val reset : t -> unit
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val to_metrics : Obs.Metrics.t -> t -> unit
(** Fold the counters into [tempagg_live_*] registry gauges. *)
