(* Flight-recorder policy over the Trace rings.

   The rings in Trace hold the most recent spans per domain regardless
   of interest; this module decides what survives ring wrap.  When a
   request turns out to matter after the fact — slow, shed, degraded,
   or errored — [pin] copies every ring span carrying that request's
   trace id into a bounded pinned store before the ring overwrites
   them.  Boring (fast, OK) traces are never pinned, so they evict
   first by construction: they only ever live in the rings.

   Pinned traces themselves evict FIFO once [max_pinned] is reached,
   bounding total retention at ring + pinned store. *)

type pinned = {
  p_trace : string;
  p_reason : string;  (* "slow" | "shed" | "degraded" | "error" *)
  p_spans : Trace.span list;
  p_elapsed_us : int;
  p_pinned_us : int;
}

let default_max_pinned = 64
let max_pinned = ref default_max_pinned

(* Newest first; pinning happens on the server's event loop but SHOW
   RECORDER runs on worker domains, so access is locked. *)
let store : pinned list ref = ref []
let store_mutex = Mutex.create ()
let pins_total = Atomic.make 0
let evicted_total = Atomic.make 0

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let configure ?max_pinned:cap () =
  match cap with Some c -> max_pinned := max 1 c | None -> ()

let clear () =
  with_lock store_mutex (fun () -> store := []);
  Atomic.set pins_total 0;
  Atomic.set evicted_total 0

let elapsed_of spans =
  match spans with
  | [] -> 0
  | s :: _ ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) s -> (min lo s.Trace.start_us, max hi s.Trace.stop_us))
          (s.Trace.start_us, s.Trace.stop_us)
          spans
      in
      max 0 (hi - lo)

let pin ~trace ~reason =
  if trace <> "" then begin
    let spans = Trace.recorded ~trace () in
    if spans <> [] then begin
      let entry =
        {
          p_trace = trace;
          p_reason = reason;
          p_spans = spans;
          p_elapsed_us = elapsed_of spans;
          p_pinned_us = Trace.now_us ();
        }
      in
      Atomic.incr pins_total;
      with_lock store_mutex (fun () ->
          (* Re-pinning a trace (e.g. slow AND degraded) replaces the
             earlier entry rather than holding two copies. *)
          let rest = List.filter (fun p -> p.p_trace <> trace) !store in
          let kept = entry :: rest in
          let n = List.length kept in
          if n > !max_pinned then begin
            ignore (Atomic.fetch_and_add evicted_total (n - !max_pinned));
            store := List.filteri (fun i _ -> i < !max_pinned) kept
          end
          else store := kept)
    end
  end

let pinned () = with_lock store_mutex (fun () -> !store)

let find trace =
  with_lock store_mutex (fun () ->
      List.find_opt (fun p -> p.p_trace = trace) !store)

(* Every span the recorder can currently see: pinned traces plus the
   live ring contents, deduplicated by span id (a freshly pinned
   trace's spans are usually still in the rings too). *)
let visible_spans ?trace () =
  let wanted s =
    match trace with None -> true | Some t -> s.Trace.trace = t
  in
  let seen = Hashtbl.create 256 in
  let take acc s =
    if wanted s && not (Hashtbl.mem seen s.Trace.id) then begin
      Hashtbl.add seen s.Trace.id ();
      s :: acc
    end
    else acc
  in
  let acc = List.fold_left take [] (Trace.recorded ?trace ()) in
  let acc =
    List.fold_left
      (fun acc p -> List.fold_left take acc p.p_spans)
      acc (pinned ())
  in
  List.sort
    (fun a b ->
      match compare a.Trace.start_us b.Trace.start_us with
      | 0 -> compare a.Trace.id b.Trace.id
      | c -> c)
    acc

let dump ?trace () = Trace.to_chrome_json (visible_spans ?trace ())

let to_metrics m =
  let occupancy, dropped = Trace.ring_stats () in
  let pins = pinned () in
  let pinned_spans =
    List.fold_left (fun n p -> n + List.length p.p_spans) 0 pins
  in
  Metrics.set_int (Metrics.gauge m "tempagg_recorder_ring_spans"
                     ~help:"Spans currently held in the flight-recorder rings")
    occupancy;
  Metrics.set_int (Metrics.gauge m "tempagg_recorder_ring_dropped_total"
                     ~help:"Spans overwritten by ring wrap since start")
    dropped;
  Metrics.set_int (Metrics.gauge m "tempagg_recorder_pinned_traces"
                     ~help:"Traces pinned for post-mortem retention")
    (List.length pins);
  Metrics.set_int (Metrics.gauge m "tempagg_recorder_pinned_spans"
                     ~help:"Spans held by pinned traces")
    pinned_spans;
  Metrics.set_int (Metrics.gauge m "tempagg_recorder_pins_total"
                     ~help:"Pin operations since start")
    (Atomic.get pins_total);
  Metrics.set_int (Metrics.gauge m "tempagg_recorder_evicted_total"
                     ~help:"Pinned traces evicted FIFO past the retention cap")
    (Atomic.get evicted_total)

(* SHOW TRACE: the tracing context as seen from the executing domain. *)
let trace_status () =
  let occupancy, dropped = Trace.ring_stats () in
  let current =
    match Trace.current_trace () with "" -> "(none)" | t -> t
  in
  Printf.sprintf
    "trace: current=%s ring-capacity=%d/domain ring-spans=%d \
     ring-dropped=%d"
    current
    (Trace.ring_capacity_now ())
    occupancy dropped

(* SHOW RECORDER: retention state, newest pins first. *)
let summary () =
  let occupancy, dropped = Trace.ring_stats () in
  let pins = pinned () in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "recorder: ring-spans=%d ring-dropped=%d pinned=%d/%d pins-total=%d \
        evicted=%d"
       occupancy dropped (List.length pins) !max_pinned
       (Atomic.get pins_total) (Atomic.get evicted_total));
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "\n  %s reason=%s spans=%d elapsed-us=%d" p.p_trace
           p.p_reason (List.length p.p_spans) p.p_elapsed_us))
    pins;
  Buffer.contents buf
