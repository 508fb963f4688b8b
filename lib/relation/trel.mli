(** Valid-time relations: a schema and a sequence of tuples.

    Relations are immutable; operations that "modify" a relation return a
    new one sharing tuples where possible. Tuple order is significant — the
    paper's algorithms are sensitive to the physical order of the relation
    (sorted, k-ordered, random).  The pass that builds a relation also
    records its time order and lifespan, so reading them is O(1). *)

open Temporal

type t

val create : Schema.t -> Tuple.t list -> t
(** @raise Invalid_argument if a tuple's arity or value types disagree with
    the schema (Null is allowed in any column). *)

val of_array : Schema.t -> Tuple.t array -> t
(** Like {!create}; takes ownership of the array (do not mutate it). *)

val schema : t -> Schema.t
val cardinality : t -> int

val get : t -> int -> Tuple.t
(** @raise Invalid_argument if out of range. *)

val tuples : t -> Tuple.t list
val to_seq : t -> Tuple.t Seq.t
val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc

val filter : (Tuple.t -> bool) -> t -> t

val append : t -> t -> t
(** @raise Invalid_argument if the schemas differ. *)

val sort_by_time : t -> t
(** Stable sort by (start, stop) — the paper's total time order. *)

val is_time_ordered : t -> bool
(** Whether the physical order is {!sort_by_time}'s order.  O(1). *)

val lifespan : t -> Interval.t option
(** Hull of all valid intervals; [None] for the empty relation.  O(1). *)

val agg_input : t -> column:string -> (Interval.t * Value.t) Seq.t
(** The (valid interval, attribute value) stream the aggregation algorithms
    consume, in the relation's physical order.
    @raise Invalid_argument if the column does not exist. *)

val intervals : t -> Interval.t Seq.t
(** Just the valid intervals, in physical order (for [COUNT] over whole
    tuples rather than a column). *)

val pp : Format.formatter -> t -> unit
