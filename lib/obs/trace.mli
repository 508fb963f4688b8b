(** Hierarchical tracing spans over a shared monotonic clock.

    Spans feed one sink: a bounded per-domain ring (the flight
    recorder, on by default — see {!set_ring_capacity}) that holds the
    most recent spans, so a live server can reconstruct a request after
    the fact.  A profiling run sizes the ring for the whole run and
    exports {!recorded} at the end.  With the ring off an instrumented
    code path costs one atomic load.  Recording never takes a lock, so
    [Parallel] shards running on separate domains trace concurrently.
    Completed spans export as Chrome [trace_event] JSON that loads in
    [about://tracing] or Perfetto, one timeline row per domain.

    Every span carries the request (trace) id it ran under, inherited
    from the enclosing span on the same domain or passed explicitly at
    domain boundaries. *)

type span = {
  id : int;
  parent : int option;
  label : string;
  trace : string;  (** request id; [""] when outside any request *)
  domain : int;  (** id of the domain that recorded the span *)
  start_us : int;  (** microseconds since process-local epoch *)
  mutable stop_us : int;
  mutable attrs : (string * string) list;
}

val now_us : unit -> int
(** The shared clock spans are stamped with: microseconds since the
    process-local epoch, monotonized across domains with a CAS max so
    successive readings never run backwards even if the wall clock
    steps.  Exposed for callers that need durations immune to clock
    adjustments (the network server's latencies and timeouts). *)

val recording : unit -> bool
(** True when the ring is on (capacity > 0).  Callers that gate
    optional attribute work (statement text, shard counts) check this. *)

val set_ring_capacity : int -> unit
(** Resize the per-domain ring (spans kept per domain).  [0] turns
    recording off entirely, the zero-cost path.  Resizing discards
    current ring contents.  Default 2048. *)

val ring_capacity_now : unit -> int

val with_span :
  ?attrs:(string * string) list ->
  ?parent:int ->
  ?trace:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span label f] runs [f] inside a new span when any sink is
    recording, and is a transparent call-through otherwise.  The parent
    defaults to the innermost open span on the calling domain, the
    trace id to that span's; pass [?parent]/[?trace] explicitly when
    crossing domains (a spawned domain has no open spans of its own).
    The span closes even if [f] raises. *)

val open_span :
  ?attrs:(string * string) list ->
  ?parent:int ->
  ?trace:string ->
  string ->
  int
(** Open a span that does not nest lexically — a queue wait opened on
    the event loop and closed by whichever worker takes the job, a
    request root spanning dispatch to completion.  The span lives in a
    shared table (not the domain-local stack) until {!close_span},
    which any domain may call.  Returns the span id, or [0] when
    nothing is recording ([close_span 0] is a no-op). *)

val close_span : ?attrs:(string * string) list -> int -> unit
(** Close a span returned by {!open_span}, appending [attrs] to it and
    recording it on the closing domain.  Unknown or [0] ids are
    ignored. *)

val current : unit -> int option
(** Id of the innermost open span on this domain, for handing to a
    child domain's [with_span ?parent].  [None] when nothing records. *)

val current_trace : unit -> string
(** Trace id of the innermost open span on this domain, for handing to
    a child domain's [with_span ?trace].  [""] when there is none. *)

val recorded : ?trace:string -> unit -> span list
(** The flight-recorder ring contents across all domains, ordered by
    start time; only the spans of request [trace] when given.  A racy
    snapshot: concurrent recording on other domains may tear it, which
    the recorder tolerates. *)

val ring_stats : unit -> int * int
(** [(occupancy, dropped)] summed over all domain rings: spans
    currently held, and spans overwritten since the last resize. *)

val clear : unit -> unit
(** Drop recorded spans without changing the ring capacity. *)

val to_chrome_json : span list -> string
(** Chrome [trace_event] JSON ([{"traceEvents": [...]}]): one complete
    ("ph":"X") event per span with ts/dur in microseconds, tid = domain
    id, attrs (and trace id) as event args, plus thread-name metadata
    per domain. *)
