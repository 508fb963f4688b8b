open Temporal

type algorithm =
  | Linked_list
  | Aggregation_tree
  | Korder_tree of { k : int }
  | Balanced_tree
  | Two_scan
  | Sweep
  | Parallel of { domains : int; inner : algorithm }

let rec name = function
  | Linked_list -> "linked-list"
  | Aggregation_tree -> "aggregation-tree"
  | Korder_tree { k } -> Printf.sprintf "ktree(%d)" k
  | Balanced_tree -> "balanced-tree"
  | Two_scan -> "two-scan"
  | Sweep -> "sweep"
  | Parallel { domains; inner } ->
      Printf.sprintf "parallel(%d,%s)" domains (name inner)

let of_string s =
  (* Accept underscores for contexts (like TSQL identifiers) where hyphens
     cannot appear. *)
  let s = String.map (function '_' -> '-' | c -> c) s in
  let err s =
    Error
      (Printf.sprintf
         "unknown algorithm %S (expected linked-list, aggregation-tree, \
          ktree(K), balanced-tree, two-scan, sweep or parallel(D[,ALGO]))"
         s)
  in
  (* The body of [prefix(body)], when [s] has that shape. *)
  let paren_body s prefix =
    let lp = String.length prefix in
    if
      String.length s > lp + 1
      && String.sub s 0 lp = prefix
      && s.[String.length s - 1] = ')'
    then Some (String.sub s lp (String.length s - lp - 1))
    else None
  in
  let rec go s =
    match s with
    | "linked-list" -> Ok Linked_list
    | "aggregation-tree" -> Ok Aggregation_tree
    | "balanced-tree" -> Ok Balanced_tree
    | "two-scan" -> Ok Two_scan
    | "sweep" -> Ok Sweep
    | _ -> (
        match paren_body s "ktree(" with
        | Some body -> (
            match int_of_string_opt body with
            | Some k when k >= 0 -> Ok (Korder_tree { k })
            | Some k ->
                Error
                  (Printf.sprintf
                     "ktree(%d): k must be non-negative (k is a bound on how \
                      far a tuple may sit from its sorted position)"
                     k)
            | None -> err s)
        | None -> (
            match paren_body s "parallel(" with
            | None -> err s
            | Some body -> (
                (* parallel(D) defaults the inner algorithm to the sweep;
                   parallel(D,ALGO) nests, e.g. parallel(4,ktree(1)). *)
                let domains_str, inner =
                  match String.index_opt body ',' with
                  | None -> (body, Ok Sweep)
                  | Some i ->
                      ( String.sub body 0 i,
                        go
                          (String.trim
                             (String.sub body (i + 1)
                                (String.length body - i - 1))) )
                in
                match int_of_string_opt (String.trim domains_str) with
                | Some d when d >= 1 ->
                    Result.map
                      (fun inner -> Parallel { domains = d; inner })
                      inner
                | Some d ->
                    Error
                      (Printf.sprintf
                         "parallel(%d): the domain count must be at least 1" d)
                | None -> err s)))
  in
  go s

let all =
  [ Linked_list; Aggregation_tree; Korder_tree { k = 1 }; Balanced_tree;
    Two_scan; Sweep; Parallel { domains = 2; inner = Sweep } ]

let rec node_bytes = function
  | Balanced_tree -> Balanced_tree.node_bytes
  | Parallel { inner; _ } -> node_bytes inner
  | Linked_list | Aggregation_tree | Korder_tree _ | Two_scan | Sweep -> 16

(* An "eval" span around [f] that, on the way out — a raise included,
   so an aborted attempt keeps its figures — records what [instrument]
   counted: the paper's memory measures, per evaluation. *)
let in_eval_span algorithm instrument f =
  Obs.Trace.with_span ~attrs:[ ("algorithm", name algorithm) ] "eval" (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.annotate
            [
              ("allocated_nodes", string_of_int (Instrument.allocated instrument));
              ("peak_bytes", string_of_int (Instrument.peak_bytes instrument));
            ])
        f)

(* The engine figures of a traced run as one snapshot, read off its
   outermost "eval" spans.  An eval inside another eval or a parallel
   shard is skipped: the enclosing instrument absorbed its counts.
   Allocations add up and the largest peak wins, as for evaluations run
   one after another; the peak's node size is its own algorithm's. *)
let snapshot_of_spans spans =
  let labels = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) -> Hashtbl.replace labels s.id s.label)
    spans;
  let outermost (s : Obs.Trace.span) =
    s.label = "eval"
    &&
    match Option.bind s.parent (Hashtbl.find_opt labels) with
    | Some ("eval" | "shard") -> false
    | _ -> true
  in
  let figure name (s : Obs.Trace.span) =
    Option.fold ~none:0 ~some:int_of_string (List.assoc_opt name s.attrs)
  in
  let node_bytes_of (s : Obs.Trace.span) =
    match Option.map of_string (List.assoc_opt "algorithm" s.attrs) with
    | Some (Ok alg) -> node_bytes alg
    | Some (Error _) | None -> 16
  in
  List.fold_left
    (fun (acc : Instrument.snapshot) s ->
      if not (outermost s) then acc
      else
        let acc =
          { acc with allocated = acc.allocated + figure "allocated_nodes" s }
        in
        let peak_bytes = figure "peak_bytes" s in
        if peak_bytes <= acc.peak_bytes then acc
        else
          let node_bytes = node_bytes_of s in
          { acc with peak_bytes; node_bytes; peak_live = peak_bytes / node_bytes })
    { Instrument.allocated = 0; peak_live = 0; node_bytes = 16; peak_bytes = 0 }
    spans

let rec eval : type v s r.
    ?origin:Chronon.t ->
    ?horizon:Chronon.t ->
    ?instrument:Instrument.t ->
    ?shard_offsets:int array ->
    algorithm ->
    (v, s, r) Monoid.t ->
    (Interval.t * v) Seq.t ->
    r Timeline.t =
 fun ?origin ?horizon ?instrument ?shard_offsets algorithm monoid data ->
  let run instrument =
    match algorithm with
    | Linked_list -> Linked_list.eval ?origin ?horizon ?instrument monoid data
    | Aggregation_tree -> Agg_tree.eval ?origin ?horizon ?instrument monoid data
    | Korder_tree { k } ->
        Korder_tree.eval ?origin ?horizon ?instrument ~k monoid data
    | Balanced_tree ->
        Balanced_tree.eval ?origin ?horizon ?instrument monoid data
    | Two_scan -> Two_scan.eval ?origin ?horizon ?instrument monoid data
    | Sweep -> Sweep.eval ?origin ?horizon ?instrument monoid data
    | Parallel { domains; inner } ->
        (* Shards evaluate to state timelines (output deferred) so that the
           pairwise merge can run under the monoid's combine.
           [shard_offsets] applies to this outermost parallel level only:
           it aligns evaluation shards with a partitioned relation's
           storage shards; a nested Parallel re-slices its own shard. *)
        let state_monoid = { monoid with Monoid.output = Fun.id } in
        Parallel.eval ?instrument ?offsets:shard_offsets ~domains
          ~eval_shard:(fun ~instrument shard ->
            eval ?origin ?horizon ?instrument inner state_monoid shard)
          monoid data
  in
  (* Recording check here rather than inside [with_span], so the cost
     on the hot path with every sink off is the atomic loads and no
     closure capture of the attrs list.  When recording, the span needs
     an instrument to read; every algorithm makes one when given none,
     so making it here costs the same. *)
  if Obs.Trace.recording () then
    let instrument =
      match instrument with
      | Some i -> i
      | None -> Instrument.create ~node_bytes:(node_bytes algorithm) ()
    in
    in_eval_span algorithm instrument (fun () -> run (Some instrument))
  else run instrument

let eval_with_stats ?origin ?horizon ?shard_offsets algorithm monoid data =
  let inst = Instrument.create ~node_bytes:(node_bytes algorithm) () in
  let timeline =
    eval ?origin ?horizon ~instrument:inst ?shard_offsets algorithm monoid data
  in
  (timeline, Instrument.snapshot inst)

(* ------------------------------------------------------------------ *)
(* Robust evaluation: budgets, deadlines and declarative fallbacks.   *)
(* ------------------------------------------------------------------ *)

type on_error = Fail | Fallback | Skip

let on_error_to_string = function
  | Fail -> "fail"
  | Fallback -> "fallback"
  | Skip -> "skip"

let on_error_of_string = function
  | "fail" -> Ok Fail
  | "fallback" -> Ok Fallback
  | "skip" -> Ok Skip
  | s ->
      Error
        (Printf.sprintf
           "unknown on-error policy %S (expected fail, fallback or skip)" s)

type degradation = { stage : string; reason : string; action : string }

let degradation_to_string { stage; reason; action } =
  Printf.sprintf "%s: %s; %s" stage reason action

type error =
  | Not_k_ordered of { position : int }
  | Budget_exhausted of { budget_bytes : int; used_bytes : int }
  | Deadline_exhausted of { deadline_ms : float; elapsed_ms : float }
  | Eval_failed of string

let degradations_to_metrics registry ds =
  List.iter
    (fun { stage; _ } ->
      Obs.Metrics.inc
        (Obs.Metrics.counter registry
           ~help:"Recovery events taken by robust evaluation, by failed stage"
           ~labels:[ ("stage", stage) ]
           "tempagg_degradations_total"))
    ds

let error_to_string = function
  | Not_k_ordered { position } ->
      Printf.sprintf
        "input is not k-ordered (tuple %d starts before the emitted \
         frontier); sort the relation, raise k, or use --on-error \
         fallback/skip"
        position
  | Budget_exhausted { budget_bytes; used_bytes } ->
      Printf.sprintf "memory budget exhausted (%d bytes live, budget %d)"
        used_bytes budget_bytes
  | Deadline_exhausted { deadline_ms; elapsed_ms } ->
      Printf.sprintf "deadline exceeded (%.1f ms elapsed, deadline %.1f ms)"
        elapsed_ms deadline_ms
  | Eval_failed msg -> msg

let reason_of_exn = function
  | Korder_tree.Order_violation { position; _ } ->
      Printf.sprintf
        "input not k-ordered (tuple %d starts before the emitted frontier)"
        position
  | Guard.Budget_exceeded { budget_bytes; used_bytes } ->
      Printf.sprintf "memory budget exceeded (%d of %d bytes)" used_bytes
        budget_bytes
  | Guard.Deadline_exceeded { deadline_ms; elapsed_ms } ->
      Printf.sprintf "deadline exceeded (%.1f of %.1f ms)" elapsed_ms
        deadline_ms
  | Invalid_argument msg -> msg
  | e -> Printexc.to_string e

(* The k-ordered tree retries at most up to this k before conceding that
   the input is essentially unsorted and the aggregation tree (which
   needs no order at all) is the right tool. *)
let k_retry_cap = 4096

(* The declarative fallback chain: which algorithm to try next after
   [alg] failed with [exn], or [None] when the failure is terminal.
   Deadlines are always terminal — retrying cannot recover wall-clock
   time already spent. *)
let rec fallback_step exn alg =
  match (alg, exn) with
  | Korder_tree { k }, Korder_tree.Order_violation _ ->
      let k' = if k = 0 then 1 else 2 * k in
      if k' <= k_retry_cap then Some (Korder_tree { k = k' })
      else Some Aggregation_tree
  | ( (Linked_list | Aggregation_tree | Korder_tree _ | Balanced_tree | Two_scan),
      Guard.Budget_exceeded _ ) ->
      (* The flat sweep allocates one slot per distinct endpoint — the
         cheapest memory profile of any algorithm here. *)
      Some Sweep
  | Parallel { domains; inner }, exn ->
      Option.map
        (fun inner -> Parallel { domains; inner })
        (fallback_step exn inner)
  | _ -> None

(* Inline recovery for a single failed shard of a parallel evaluation:
   order violations re-run under the order-oblivious aggregation tree,
   blown budgets under the flat sweep.  Anything else (deadline, real
   bugs) is terminal and propagates. *)
let shard_fallback_algorithm = function
  | Korder_tree.Order_violation _ -> Aggregation_tree
  | Guard.Budget_exceeded _ -> Sweep
  | e -> raise e

let eval_robust : type v s r.
    ?origin:Chronon.t ->
    ?horizon:Chronon.t ->
    ?on_error:on_error ->
    ?memory_budget:int ->
    ?deadline_ms:float ->
    ?shard_offsets:int array ->
    algorithm ->
    (v, s, r) Monoid.t ->
    (Interval.t * v) Seq.t ->
    (r Timeline.t * degradation list, error) result =
 fun ?origin ?horizon ?(on_error = Fallback) ?memory_budget ?deadline_ms
     ?shard_offsets algorithm monoid data ->
  let run () =
    (* Materialize once so every retry sees the same tuples even if the
       caller's Seq is ephemeral (e.g. a single-pass storage scan). *)
    let tuples = Array.of_seq data in
    if Obs.Trace.recording () then
      Obs.Trace.annotate [ ("tuples", string_of_int (Array.length tuples)) ];
    let data = Array.to_seq tuples in
    let guard = Guard.create ?memory_budget ?deadline_ms () in
    let degradations = ref [] in
    let note ~stage ~reason ~action =
      degradations := { stage; reason; action } :: !degradations
    in
    (* One attempt with algorithm [alg], under [guard].  Raises on
       failure; the caller decides whether the policy and chain allow a
       retry. *)
    let attempt alg =
      let inst = Instrument.create ~node_bytes:(node_bytes alg) () in
      if not (Guard.unlimited guard) then begin
        (* Parallel shards inherit this instrument's hook and run
           concurrently, so each shard is held to an equal split of the
           memory budget (their live bytes add up); the deadline clock
           is shared. *)
        let g =
          match alg with
          | Parallel { domains; _ } ->
              let ways =
                match shard_offsets with
                | Some o -> Stdlib.max 1 (Array.length o - 1)
                | None -> domains
              in
              Guard.split guard ways
          | _ -> guard
        in
        Guard.attach g inst
      end;
      let data () = Guard.wrap_seq guard data in
      (* The two shapes [eval] cannot express get their own "eval" span,
         so every attempt's evaluation carries its figures. *)
      let traced f =
        if Obs.Trace.recording () then in_eval_span alg inst f else f ()
      in
      let body () =
        match (alg, on_error) with
        | Korder_tree { k }, Skip ->
            (* Skip mode: drop (and count) each misordered tuple instead
               of abandoning the k-ordered tree. *)
            traced (fun () ->
                let t =
                  Korder_tree.create ?origin ?horizon ~instrument:inst ~k monoid
                in
                let skipped = ref 0 in
                Seq.iter
                  (fun (iv, v) ->
                    match Korder_tree.insert t iv v with
                    | () -> ()
                    | exception Korder_tree.Order_violation _ -> incr skipped)
                  (data ());
                let timeline = Korder_tree.finish t in
                if !skipped > 0 then
                  note ~stage:(name alg) ~reason:"input not k-ordered"
                    ~action:
                      (Printf.sprintf "skipped %d misordered tuples" !skipped);
                timeline)
        | Parallel { domains; inner }, (Fallback | Skip) ->
            let state_monoid = { monoid with Monoid.output = Fun.id } in
            let fallback_shard ~shard ~exn ~instrument shard_data =
              let fb = shard_fallback_algorithm exn in
              note
                ~stage:(Printf.sprintf "%s shard %d" (name inner) shard)
                ~reason:(reason_of_exn exn)
                ~action:(Printf.sprintf "re-evaluated inline with %s" (name fb));
              eval ?origin ?horizon ?instrument fb state_monoid shard_data
            in
            traced (fun () ->
                Parallel.eval ~instrument:inst ~fallback_shard
                  ?offsets:shard_offsets ~domains
                  ~eval_shard:(fun ~instrument shard ->
                    eval ?origin ?horizon ?instrument inner state_monoid shard)
                  monoid (data ()))
        | _ ->
            eval ?origin ?horizon ~instrument:inst ?shard_offsets alg monoid
              (data ())
      in
      if not (Obs.Trace.recording ()) then body ()
      else
        Obs.Trace.with_span ~attrs:[ ("algorithm", name alg) ] "attempt"
          (fun () ->
            match body () with
            | timeline ->
                Obs.Trace.annotate [ ("outcome", "ok") ];
                timeline
            | exception e ->
                Obs.Trace.annotate [ ("outcome", reason_of_exn e) ];
                raise e)
    in
    let error_of_exn = function
      | Korder_tree.Order_violation { position; _ } ->
          Not_k_ordered { position }
      | Guard.Budget_exceeded { budget_bytes; used_bytes } ->
          Budget_exhausted { budget_bytes; used_bytes }
      | Guard.Deadline_exceeded { deadline_ms; elapsed_ms } ->
          Deadline_exhausted { deadline_ms; elapsed_ms }
      | Invalid_argument msg -> Eval_failed msg
      | e -> raise e
    in
    let rec go alg =
      match attempt alg with
      | timeline -> Ok (timeline, List.rev !degradations)
      | exception e -> (
          match (on_error, fallback_step e alg) with
          | (Fallback | Skip), Some alg' ->
              note ~stage:(name alg) ~reason:(reason_of_exn e)
                ~action:("retrying with " ^ name alg');
              go alg'
          | _ -> Error (error_of_exn e))
    in
    go algorithm
  in
  if Obs.Trace.recording () then
    Obs.Trace.with_span
      ~attrs:[ ("algorithm", name algorithm) ]
      "eval-robust" run
  else run ()
