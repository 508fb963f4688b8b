(** Flat-array endpoint sweep — the cache-friendly modern baseline.

    Every algorithm from the 1995 paper is a pointer-chasing linked
    structure.  On modern hardware a flat sorted-endpoint sweep wins by a
    wide margin: materialize each tuple as two endpoint events in an int
    array, sort it (one cache-friendly pass over unboxed ints), and emit
    the constant intervals in a single scan.

    Two evaluation paths, chosen by {!Monoid.invertible}:

    - {e delta summation} for invertible monoids (count/sum/avg/variance):
      each tuple scatters [+inject v] at its entry bucket and
      [inverse (inject v)] at its exit bucket; a single prefix-combine
      sweep then yields every constant interval's state.  O(n log n) for
      the sort, O(n log m) to scatter, O(m) to sweep.

    - a {e flat segment tree} over the constant intervals for
      non-invertible monoids (min/max): each tuple combines into the
      O(log m) canonical nodes covering its bucket range, and one
      top-down pass re-combines node states into the leaves.
      O(n log m + m), still entirely in flat arrays, at the price of a
      2x-padded state array.

    Both paths allocate the endpoint events and the per-bucket states
    through {!Instrument} under the same 16-byte node model as the
    paper's algorithms, so the memory tables stay comparable. *)

open Temporal

val radix_sort : int array -> int array -> int -> unit
(** [radix_sort points slots len] sorts [points.(0 .. len-1)] (which must
    be non-negative) ascending in place, permuting [slots] in tandem so
    each sorted point still knows which tuple produced it.  LSD radix
    with 8-bit digits; the number of counting passes adapts to the
    largest value.  This is the sort under the delta-sweep's endpoint
    stream; the interval-join sweep reuses it for its start-event
    streams. *)

val eval :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t
(** The input sequence is materialized internally; order is irrelevant.
    @raise Invalid_argument if an interval is not within
    [[origin, horizon]]. *)
