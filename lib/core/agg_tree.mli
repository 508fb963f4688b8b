(** The aggregation tree (paper, Section 5.1).

    A binary tree over the constant intervals induced by the tuples'
    timestamps, built incrementally in one scan of the relation.  Each
    unique timestamp splits a leaf (adding two nodes); a tuple whose
    interval fully covers a node's span records its contribution at that
    node without descending further.  A final depth-first traversal
    combines states along each root-to-leaf path and emits the constant
    intervals in time order.

    Best suited to {e randomly ordered} relations (the tree stays roughly
    balanced); a time-sorted relation degenerates into a linear right
    spine and [O(n^2)] behaviour — use {!Korder_tree} (after sorting, with
    [k = 1]) or {!Balanced_tree} instead. *)

open Temporal

type ('v, 's, 'r) t

val create :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ('v, 's, 'r) Monoid.t ->
  ('v, 's, 'r) t
(** A tree over the span [[origin, horizon]] (default the full
    time-line), initially the single empty constant interval (Figure 3.a).
    @raise Invalid_argument if [origin > horizon]. *)

val insert : ('v, 's, 'r) t -> Interval.t -> 'v -> unit
(** Add one tuple's contribution.
    @raise Invalid_argument if the interval is not within
    [[origin, horizon]]. *)

val insert_all : ('v, 's, 'r) t -> (Interval.t * 'v) Seq.t -> unit

val result : ('v, 's, 'r) t -> 'r Timeline.t
(** The depth-first traversal: every constant interval with its aggregate
    value, in time order, covering [[origin, horizon]].  The tree may keep
    being extended afterwards. *)

val node_count : ('v, 's, 'r) t -> int
val depth : ('v, 's, 'r) t -> int
val instrument : ('v, 's, 'r) t -> Instrument.t

val render : ('s -> string) -> ('v, 's, 'r) t -> string
(** ASCII rendering of the current tree (spans and node states) — compare
    with the paper's Figure 3 stages. *)

val eval :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t
(** One-shot: build the tree from the sequence and traverse it. *)
