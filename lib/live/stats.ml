type t = {
  mutable inserts : int;
  mutable deletes : int;
  mutable patched_segments : int;
  mutable rebuilds : int;
  mutable pending_tombstones : int;
  mutable snapshots : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_invalidations : int;
  mutable cache_evictions : int;
}

let create () =
  {
    inserts = 0;
    deletes = 0;
    patched_segments = 0;
    rebuilds = 0;
    pending_tombstones = 0;
    snapshots = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_invalidations = 0;
    cache_evictions = 0;
  }

let reset t =
  t.inserts <- 0;
  t.deletes <- 0;
  t.patched_segments <- 0;
  t.rebuilds <- 0;
  t.pending_tombstones <- 0;
  t.snapshots <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.cache_invalidations <- 0;
  t.cache_evictions <- 0

let to_metrics registry t =
  let g name help v =
    Obs.Metrics.set_int (Obs.Metrics.gauge registry ~help name) v
  in
  g "tempagg_live_inserts" "Tuples inserted into live views" t.inserts;
  g "tempagg_live_deletes" "Tuples deleted from live views" t.deletes;
  g "tempagg_live_patched_segments" "Segments patched in place"
    t.patched_segments;
  g "tempagg_live_rebuilds" "Full timeline rebuilds" t.rebuilds;
  g "tempagg_live_pending_tombstones" "Deletes awaiting a rebuild"
    t.pending_tombstones;
  g "tempagg_live_snapshots" "Snapshots taken" t.snapshots;
  g "tempagg_live_cache_hits" "Snapshot cache hits" t.cache_hits;
  g "tempagg_live_cache_misses" "Snapshot cache misses" t.cache_misses;
  g "tempagg_live_cache_invalidations" "Snapshot cache invalidations"
    t.cache_invalidations;
  g "tempagg_live_cache_evictions" "Snapshot cache evictions" t.cache_evictions
