(* Clock and order statistics shared by the load generator and its
   children. *)

(* CLOCK_MONOTONIC in seconds.  The clock is system-wide, so a server
   child's "created at" and the load generator's "warm-up answered at"
   can be subtracted across processes. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let x = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = percentile a 50.

(* Percentile of samples rounded to whole units (span durations are
   whole microseconds): each value [v] stands for [v-0.5, v+0.5), and the
   result interpolates inside the block of samples tied at the rank, as
   the median of grouped data is computed.  Ties are common for short
   spans, and this keeps a 7.4 us wait from reading as 7 on every run. *)
let grouped_percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let k = p /. 100. *. float_of_int n in
    let v = s.(min (n - 1) (int_of_float k)) in
    let below = ref 0 and tied = ref 0 in
    Array.iter (fun x -> if x < v then incr below else if x = v then incr tied) s;
    v -. 0.5 +. ((k -. float_of_int !below) /. float_of_int !tied)

(* First and third quartiles by the rule Python's
   [statistics.quantiles(data, n=4)] applies by default ("exclusive"),
   so the spreads printed here are the ones other tooling computes. *)
let quartiles a =
  let s = sorted a in
  let m = Array.length s in
  if m = 0 then (Float.nan, Float.nan)
  else if m = 1 then (s.(0), s.(0))
  else
    let q i =
      let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
      let delta = (i * (m + 1)) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let sum a = Array.fold_left ( +. ) 0. a
