(** Temporal grouping by span (paper, Sections 2 and 7).

    Instead of grouping by instant, the time-line is partitioned into
    fixed-length spans (e.g. years) and the aggregate computed over each
    span: a tuple contributes to every span its interval overlaps.  The
    paper notes ("future work") that when the number of spans is much
    smaller than the number of constant intervals, far fewer buckets need
    to be maintained and even the slower algorithms become adequate.

    Implementation: tuple intervals are quantized to span indices and any
    instant-grouping algorithm is run in the (much smaller) span-index
    domain; results are mapped back to span-aligned intervals. *)

open Temporal

val eval :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?algorithm:Engine.algorithm ->
  granule:Granule.t ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t
(** The result timeline's segment boundaries are span-aligned (clipped to
    [[origin, horizon]]); each segment's value is the aggregate over the
    tuples overlapping any instant of that segment's spans.  The default
    algorithm is the aggregation tree.
    @raise Invalid_argument if the granule's anchor is after [origin], or
    an interval is not within [[origin, horizon]]. *)

val eval_with_stats :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?algorithm:Engine.algorithm ->
  granule:Granule.t ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t * Instrument.snapshot

val eval_robust :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?algorithm:Engine.algorithm ->
  ?on_error:Engine.on_error ->
  ?memory_budget:int ->
  ?deadline_ms:float ->
  granule:Granule.t ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  ('r Timeline.t * Engine.degradation list, Engine.error) result
(** {!eval} through {!Engine.eval_robust}: budgets, deadlines and the
    fallback chain apply to the span-index evaluation; a bad granule
    anchor surfaces as [Error (Eval_failed _)] rather than an exception
    (a quantization error on an out-of-range interval still raises, as
    in {!eval}). *)
