open Temporal

let check_interval origin horizon iv =
  if
    Chronon.( < ) (Interval.start iv) origin
    || Chronon.( > ) (Interval.stop iv) horizon
  then
    invalid_arg
      (Printf.sprintf "Two_scan: %s outside [%s,%s]" (Interval.to_string iv)
         (Chronon.to_string origin)
         (Chronon.to_string horizon))

(* The boundaries are the origin plus, for every tuple [s,e], the points
   where the overlapping set changes: s and (e+1).  Sorted and deduplicated
   they give the starts of the constant intervals. *)
let boundaries ~origin ~horizon intervals =
  let add acc c = c :: acc in
  let points =
    Seq.fold_left
      (fun acc iv ->
        check_interval origin horizon iv;
        let acc =
          if Chronon.( > ) (Interval.start iv) origin then
            add acc (Interval.start iv)
          else acc
        in
        let stop = Interval.stop iv in
        if Chronon.is_finite stop && Chronon.( < ) stop horizon then
          add acc (Chronon.succ stop)
        else acc)
      [] intervals
  in
  let sorted = List.sort_uniq Chronon.compare (origin :: points) in
  Array.of_list sorted

let intervals_of_boundaries ~horizon starts =
  let m = Array.length starts in
  Array.init m (fun i ->
      let stop =
        if i + 1 < m then Chronon.pred starts.(i + 1) else horizon
      in
      Interval.make starts.(i) stop)

let constant_intervals ?(origin = Chronon.origin)
    ?(horizon = Chronon.forever) intervals =
  let starts = boundaries ~origin ~horizon intervals in
  intervals_of_boundaries ~horizon starts

(* Index of the bucket whose start is the greatest one <= c. *)
let bucket_of starts c =
  let rec search lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if Chronon.( <= ) starts.(mid) c then search mid hi
      else search lo (mid - 1)
  in
  search 0 (Array.length starts - 1)

let eval ?(origin = Chronon.origin) ?(horizon = Chronon.forever) ?instrument
    monoid data =
  let inst =
    match instrument with Some i -> i | None -> Instrument.create ()
  in
  let tuples = Array.of_seq data in
  (* Scan one: the constant intervals. *)
  let starts =
    boundaries ~origin ~horizon (Seq.map fst (Array.to_seq tuples))
  in
  let m = Array.length starts in
  let states = Array.make m monoid.Monoid.empty in
  for _ = 1 to m do
    Instrument.alloc inst
  done;
  (* Scan two: fold each tuple into the buckets it overlaps. *)
  Array.iter
    (fun (iv, v) ->
      let st = monoid.Monoid.inject v in
      let first = bucket_of starts (Interval.start iv) in
      let stop = Interval.stop iv in
      let rec fill i =
        if i < m && Chronon.( <= ) starts.(i) stop then begin
          states.(i) <- monoid.Monoid.combine states.(i) st;
          fill (i + 1)
        end
      in
      fill first)
    tuples;
  let spans = intervals_of_boundaries ~horizon starts in
  Timeline.of_list
    (Array.to_list
       (Array.map2 (fun iv st -> (iv, monoid.Monoid.output st)) spans states))
