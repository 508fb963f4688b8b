(** Flight-recorder retention policy over the {!Trace} rings.

    The rings keep the most recent spans per domain indiscriminately;
    this module pins complete traces that turn out to matter — slow,
    shed, degraded, or errored requests — into a bounded store before
    ring wrap overwrites them.  Fast-OK traces are never pinned and so
    evict first by construction.  Pinned traces evict FIFO past
    [max_pinned]. *)

type pinned = {
  p_trace : string;
  p_reason : string;  (** "slow", "shed", "degraded" or "error" *)
  p_spans : Trace.span list;
  p_elapsed_us : int;  (** span of the trace: max stop − min start *)
  p_pinned_us : int;  (** when the pin happened, {!Trace.now_us} clock *)
}

val configure : ?max_pinned:int -> unit -> unit
(** Set the pinned-trace cap (default 64, minimum 1). *)

val pin : trace:string -> reason:string -> unit
(** Copy every ring span carrying [trace] into the pinned store.
    No-op for the empty trace id or when the rings hold no such spans.
    Re-pinning a trace replaces its earlier entry (last reason wins). *)

val pinned : unit -> pinned list
(** Pinned traces, newest first. *)

val find : string -> pinned option

val dump : ?trace:string -> unit -> string
(** Chrome [trace_event] JSON of everything the recorder can see —
    pinned traces plus live ring contents, deduplicated — optionally
    restricted to one trace id. *)

val to_metrics : Metrics.t -> unit
(** Refresh ring occupancy/drop and pin/eviction gauges in [m]. *)

val trace_status : unit -> string
(** One-line tracing context for [SHOW TRACE]: current trace id on the
    calling domain, ring capacity and pressure. *)

val summary : unit -> string
(** Multi-line retention state for [SHOW RECORDER]: ring pressure plus
    one line per pinned trace (id, reason, span count, elapsed). *)

val clear : unit -> unit
(** Drop all pinned traces and reset counters (tests). *)
