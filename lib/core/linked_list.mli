(** The linked-list (naive) algorithm (paper, Section 4.2).

    An ordered list of constant intervals with their partial aggregate
    states, covering the whole span, incrementally refined: each tuple is
    walked from the head of the list, splitting the cells containing its
    start and stop timestamps and folding its contribution into every cell
    it overlaps.  One scan of the relation — the paper's improvement over
    Tuma's two-scan approach — but [O(list length)] per tuple, hence
    [O(n^2)] overall.

    Its performance is insensitive to tuple order and to long-lived
    tuples, and it is expected to win when the result has very few
    constant intervals (Section 6.3).

    Two walk strategies are provided.  The paper's description compares
    "the tuple's start and end times with the start and end times of
    each interval in the list" — a full walk whose cost depends only on
    the list length, which is why the paper finds the algorithm
    unaffected by long-lived tuples.  By default this implementation
    stops the walk at the tuple's end timestamp ([full_walk = false]),
    which is never slower; pass [~full_walk:true] to reproduce the
    paper's cost behaviour exactly. *)

open Temporal

type ('v, 's, 'r) t

val create :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ?full_walk:bool ->
  ('v, 's, 'r) Monoid.t ->
  ('v, 's, 'r) t
(** Initially the single constant interval [[origin, horizon]] with the
    empty state.  [full_walk] defaults to [false] (stop each insertion
    walk at the tuple's end).
    @raise Invalid_argument if [origin > horizon]. *)

val insert : ('v, 's, 'r) t -> Interval.t -> 'v -> unit
(** @raise Invalid_argument if the interval is not within
    [[origin, horizon]]. *)

val insert_all : ('v, 's, 'r) t -> (Interval.t * 'v) Seq.t -> unit

val result : ('v, 's, 'r) t -> 'r Timeline.t

val cell_count : ('v, 's, 'r) t -> int
val instrument : ('v, 's, 'r) t -> Instrument.t

val eval :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ?full_walk:bool ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t
