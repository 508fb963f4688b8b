(** The k-ordered aggregation tree (paper, Section 5.3).

    A relation is {e k-ordered} when every tuple is at most [k] positions
    away from its place in the start-time-sorted order (Section 5.2).  For
    such input, once tuple [i] has been processed, every constant interval
    that ends before the start time of tuple [i - (2k+1)] can never be
    affected again: it is emitted to the next query-evaluation stage and
    its tree nodes are garbage-collected.  This keeps the live tree small
    — with a sorted relation and [k = 1] it is the paper's recommended
    strategy (best time {e and} memory).

    Retroactively bounded relations (updates recorded within a bounded
    delay) are k-ordered for the corresponding k under a uniform arrival
    rate, so the algorithm applies to them without sorting (Sections 5.2
    and 6.3). *)

open Temporal

exception Order_violation of { position : int; start : Chronon.t; frontier : Chronon.t }
(** Raised when a tuple starts before the already-emitted part of the
    time-line — the input was not k-ordered for the configured [k].
    [position] is the 0-based index of the offending tuple. *)

type ('v, 's, 'r) t

val create :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ?on_emit:(Interval.t -> 'r -> unit) ->
  k:int ->
  ('v, 's, 'r) Monoid.t ->
  ('v, 's, 'r) t
(** [on_emit] is called, in time order, for every constant interval as it
    becomes final — use it to stream results to the next stage.  Emitted
    segments are also buffered so that {!finish} can return the complete
    timeline.
    @raise Invalid_argument if [k < 0] or [origin > horizon]. *)

val insert : ('v, 's, 'r) t -> Interval.t -> 'v -> unit
(** Process one tuple; may emit and garbage-collect finalized constant
    intervals.
    @raise Order_violation if the tuple start precedes the emitted
    frontier (input not k-ordered for this [k]).
    @raise Invalid_argument if the interval is not within
    [[origin, horizon]]. *)

val insert_all : ('v, 's, 'r) t -> (Interval.t * 'v) Seq.t -> unit

val finish : ('v, 's, 'r) t -> 'r Timeline.t
(** Emit the remaining tree and return the complete timeline (previously
    emitted segments included).  The tree must not be used afterwards. *)

val live_nodes : ('v, 's, 'r) t -> int
(** Current tree size — bounded by the window, not by the relation. *)

val instrument : ('v, 's, 'r) t -> Instrument.t

val eval :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  k:int ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t
