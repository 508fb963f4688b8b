(** A balanced aggregation tree — the paper's first "future work" item
    (Section 7): "One alternative to examine is a balanced aggregation
    tree, which should be especially efficient in the case of a k-ordered
    relation."

    This variant keeps the tree AVL-balanced on its split timestamps.  A
    rotation would change root-to-leaf paths, so before rotating, the
    states of the rotated nodes are pushed down to their children — legal
    because aggregate states form a commutative monoid — after which the
    shape change cannot alter any path combination.  Inserting a tuple
    first adds its (at most two) new boundaries as AVL key insertions,
    then performs a standard segment-tree range update.

    Worst-case [O(n log n)] regardless of input order, where the plain
    {!Agg_tree} degenerates to [O(n^2)] on sorted input.  The price is one
    extra word per node (the height): 20 bytes/node against the paper's
    16. *)

open Temporal

type ('v, 's, 'r) t

val node_bytes : int
(** 20 — the paper's 16-byte node plus the AVL height word. *)

val create :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ('v, 's, 'r) Monoid.t ->
  ('v, 's, 'r) t
(** @raise Invalid_argument if [origin > horizon].  When [instrument] is
    omitted, a fresh one with {!node_bytes}-byte nodes is used. *)

val insert : ('v, 's, 'r) t -> Interval.t -> 'v -> unit
(** @raise Invalid_argument if the interval is not within
    [[origin, horizon]]. *)

val insert_all : ('v, 's, 'r) t -> (Interval.t * 'v) Seq.t -> unit

val result : ('v, 's, 'r) t -> 'r Timeline.t

val node_count : ('v, 's, 'r) t -> int

val depth : ('v, 's, 'r) t -> int
(** Height of the tree — AVL-bounded by ~1.44 log2 of the node count. *)

val instrument : ('v, 's, 'r) t -> Instrument.t

val eval :
  ?origin:Chronon.t ->
  ?horizon:Chronon.t ->
  ?instrument:Instrument.t ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) Seq.t ->
  'r Timeline.t
