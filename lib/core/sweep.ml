open Temporal

let check_interval origin horizon iv =
  if
    Chronon.( < ) (Interval.start iv) origin
    || Chronon.( > ) (Interval.stop iv) horizon
  then
    invalid_arg
      (Printf.sprintf "Sweep: %s outside [%s,%s]" (Interval.to_string iv)
         (Chronon.to_string origin)
         (Chronon.to_string horizon))

(* LSD radix sort of [points.(0 .. len-1)] (non-negative ints — chronons
   are never negative), permuting [slots] in tandem so each sorted point
   still knows which tuple endpoint produced it.  8-bit digits; the
   number of counting passes adapts to the largest value, so typical
   lifespans (~1M instants) sort in three passes of pure array traffic —
   far cheaper than a comparison sort's ~n log n closure calls. *)
let radix_sort points slots len =
  let max_v = ref 0 in
  for i = 0 to len - 1 do
    if Array.unsafe_get points i > !max_v then
      max_v := Array.unsafe_get points i
  done;
  let tmp_p = Array.make len 0 and tmp_s = Array.make len 0 in
  let count = Array.make 256 0 in
  let src_p = ref points and src_s = ref slots in
  let dst_p = ref tmp_p and dst_s = ref tmp_s in
  let shift = ref 0 in
  (* The shift bound matters: keys can be [max_int] (a forever stop
     saturates there), and a hardware shift of 64 wraps to 0, so the
     [asr] alone would never reach a zero quotient. *)
  while !shift < Sys.int_size && !max_v asr !shift > 0 do
    Array.fill count 0 256 0;
    let sp = !src_p and ss = !src_s and dp = !dst_p and ds = !dst_s in
    for i = 0 to len - 1 do
      let d = (Array.unsafe_get sp i asr !shift) land 0xff in
      Array.unsafe_set count d (Array.unsafe_get count d + 1)
    done;
    let acc = ref 0 in
    for d = 0 to 255 do
      let c = Array.unsafe_get count d in
      Array.unsafe_set count d !acc;
      acc := !acc + c
    done;
    for i = 0 to len - 1 do
      let v = Array.unsafe_get sp i in
      let d = (v asr !shift) land 0xff in
      let pos = Array.unsafe_get count d in
      Array.unsafe_set count d (pos + 1);
      Array.unsafe_set dp pos v;
      Array.unsafe_set ds pos (Array.unsafe_get ss i)
    done;
    let p = !src_p and s = !src_s in
    src_p := !dst_p;
    src_s := !dst_s;
    dst_p := p;
    dst_s := s;
    shift := !shift + 8
  done;
  if !src_p != points then begin
    Array.blit !src_p 0 points 0 len;
    Array.blit !src_s 0 slots 0 len
  end

(* Collect the constant-interval start points as a flat, sorted, unique
   int array: the origin plus, for every tuple [s,e], s (where the tuple
   enters) and e+1 (where it leaves), clipped to (origin, horizon].
   Also returns [rank], mapping tuple endpoints to bucket indices:
   [rank.(2i)] is the bucket where tuple [i] enters (0 when its start is
   clipped to the origin) and [rank.(2i + 1)] the bucket of its exit
   boundary — only meaningful when that exit was recorded, i.e. when the
   stop is finite and before the horizon.  Carrying the ranks out of the
   sort means the scatter passes need no per-tuple binary searches. *)
let boundary_array ~origin ~horizon tuples =
  let n = Array.length tuples in
  let len = (2 * n) + 1 in
  let points = Array.make len 0 in
  let slots = Array.make len (-1) in
  points.(0) <- Chronon.to_int origin;
  let filled = ref 1 in
  Array.iteri
    (fun t (iv, _) ->
      check_interval origin horizon iv;
      let s = Interval.start iv in
      if Chronon.( > ) s origin then begin
        points.(!filled) <- Chronon.to_int s;
        slots.(!filled) <- 2 * t;
        incr filled
      end;
      let e = Interval.stop iv in
      if Chronon.is_finite e && Chronon.( < ) e horizon then begin
        points.(!filled) <- Chronon.to_int e + 1;
        slots.(!filled) <- (2 * t) + 1;
        incr filled
      end)
    tuples;
  radix_sort points slots !filled;
  (* Dedup in place, assigning each endpoint its bucket as we go.  The
     origin is the strict minimum (every recorded point exceeds it), so
     points.(0) survives and unrecorded entry slots default to bucket 0. *)
  let rank = Array.make (2 * n) 0 in
  let m = ref 1 in
  for i = 1 to !filled - 1 do
    if points.(i) <> points.(!m - 1) then begin
      points.(!m) <- points.(i);
      incr m
    end;
    let s = slots.(i) in
    if s >= 0 then rank.(s) <- !m - 1
  done;
  (Array.sub points 0 !m, rank)

(* Invertible path: scatter each tuple as a +state delta at its entry
   bucket and an (inverse state) delta at its exit bucket, then emit the
   running combination in one left-to-right sweep (delta summation). *)
let eval_invertible ~horizon ~inst ~inverse monoid tuples (starts, rank) =
  let m = Array.length starts in
  let deltas = Array.make m monoid.Monoid.empty in
  for _ = 1 to m do
    Instrument.alloc inst
  done;
  Array.iteri
    (fun t (iv, v) ->
      let st = monoid.Monoid.inject v in
      let enter = rank.(2 * t) in
      deltas.(enter) <- monoid.Monoid.combine deltas.(enter) st;
      let e = Interval.stop iv in
      if Chronon.is_finite e && Chronon.( < ) e horizon then begin
        let exit = rank.((2 * t) + 1) in
        deltas.(exit) <- monoid.Monoid.combine deltas.(exit) (inverse st)
      end)
    tuples;
  let state = ref monoid.Monoid.empty in
  let values =
    Array.map
      (fun delta ->
        state := monoid.Monoid.combine !state delta;
        !state)
      deltas
  in
  values

(* Non-invertible path (min/max): a flat segment tree over the constant
   intervals.  Each tuple's state is combined into the O(log m) canonical
   nodes covering its bucket range; a single top-down re-combination pass
   then pushes every node's state into its leaves.  O(n log m + m) with
   all state in two flat arrays — no retraction needed, so idempotent
   semilattices are fine. *)
let eval_segment_tree ~horizon ~inst monoid tuples (starts, rank) =
  let m = Array.length starts in
  let size =
    let rec pow2 s = if s >= m then s else pow2 (2 * s) in
    pow2 1
  in
  let tree = Array.make (2 * size) monoid.Monoid.empty in
  for _ = 1 to 2 * size do
    Instrument.alloc inst
  done;
  Array.iteri
    (fun t (iv, v) ->
      let st = monoid.Monoid.inject v in
      let first = rank.(2 * t) in
      let e = Interval.stop iv in
      let last =
        (* The bucket containing a finite stop [e] sits one before the
           exit boundary [e + 1]; a tuple reaching the horizon covers
           through the last bucket. *)
        if Chronon.is_finite e && Chronon.( < ) e horizon then
          rank.((2 * t) + 1) - 1
        else m - 1
      in
      (* Combine [st] into the canonical cover of [first, last]. *)
      let lo = ref (first + size) and hi = ref (last + size + 1) in
      while !lo < !hi do
        if !lo land 1 = 1 then begin
          tree.(!lo) <- monoid.Monoid.combine tree.(!lo) st;
          incr lo
        end;
        if !hi land 1 = 1 then begin
          decr hi;
          tree.(!hi) <- monoid.Monoid.combine tree.(!hi) st
        end;
        lo := !lo asr 1;
        hi := !hi asr 1
      done)
    tuples;
  (* Push every internal node's pending state down to its children; the
     monoid is commutative, so the order of combination is irrelevant. *)
  for node = 1 to size - 1 do
    let l = 2 * node and r = (2 * node) + 1 in
    tree.(l) <- monoid.Monoid.combine tree.(l) tree.(node);
    tree.(r) <- monoid.Monoid.combine tree.(r) tree.(node)
  done;
  Array.init m (fun i -> tree.(size + i))

let eval_states ?(origin = Chronon.origin) ?(horizon = Chronon.forever)
    ?instrument monoid data =
  let inst =
    match instrument with Some i -> i | None -> Instrument.create ()
  in
  let tuples = Array.of_seq data in
  (* The endpoint events: two per tuple, counted against the same 16-byte
     node model the other algorithms use so the memory tables compare. *)
  for _ = 1 to 2 * Array.length tuples do
    Instrument.alloc inst
  done;
  let (starts, _) as boundaries = boundary_array ~origin ~horizon tuples in
  let values =
    match monoid.Monoid.inverse with
    | Some inverse ->
        eval_invertible ~horizon ~inst ~inverse monoid tuples boundaries
    | None -> eval_segment_tree ~horizon ~inst monoid tuples boundaries
  in
  (starts, values)

let eval ?origin ?horizon ?instrument monoid data =
  let horizon' = Option.value horizon ~default:Chronon.forever in
  let starts, values = eval_states ?origin ?horizon ?instrument monoid data in
  let m = Array.length starts in
  Timeline.init m (fun i ->
      let start = Chronon.of_int starts.(i) in
      let stop =
        if i + 1 < m then Chronon.of_int (starts.(i + 1) - 1) else horizon'
      in
      (Interval.make start stop, monoid.Monoid.output values.(i)))
