(** Tuma's two-scan algorithm (paper, Section 4.1; Tuma 1992, TempIS).

    The only temporal-aggregation algorithm implemented before the paper:
    first scan the relation to determine the constant intervals (the
    periods during which no tuple enters or exits), then scan it again to
    compute the aggregate value over each constant interval.  The paper's
    algorithms beat it by needing only one scan; it is included here as
    the historical baseline.

    This implementation keeps the two logical passes: pass one collects
    and sorts the unique interval endpoints into the constant-interval
    array ("buckets"); pass two re-reads the relation and folds each
    tuple's contribution into every bucket it overlaps (located by binary
    search). *)

open Temporal

val eval :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t
(** The input sequence is materialized internally so that it can be
    scanned twice.
    @raise Invalid_argument if an interval is not within
    [[origin, horizon]]. *)

val constant_intervals :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  Interval.t Seq.t ->
  Interval.t array
(** Just pass one: the constant intervals induced by the given tuple
    intervals, in time order, partitioning [[origin, horizon]]. *)
