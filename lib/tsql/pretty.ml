open Relation

(* One writer, two passes.  The first measures every column's width
   from digit counts, without building a string per Int cell or
   interval endpoint; only Float cells are rendered ([%g] has no cheap
   width), once each.  The second writes every line into one buffer of
   exactly the measured size.  A result grouped by instant has a row
   per constant interval, so replies grow with the relation, and a
   string per cell would dominate their cost. *)

(* Decimal width of [n], sign included.  A negative [n] counts
   [-(n / 10)], which cannot overflow, even for [min_int]. *)
let int_width n =
  let rec nat n w =
    if n < 10 then w
    else if n < 100 then w + 1
    else if n < 1000 then w + 2
    else if n < 10000 then w + 3
    else nat (n / 10000) (w + 4)
  in
  if n >= 0 then nat n 1 else if n > -10 then 2 else nat (-(n / 10)) 3

(* Writes [x] so its last character lands at [stop - 1], digits first
   and backwards, in the non-positive range like [int_width]; returns
   the position of its first character. *)
let int_back b stop x =
  let rec go p n =
    let q = n / 10 in
    Bytes.set b p (Char.unsafe_chr (48 + (q * 10) - n));
    if q = 0 then p else go (p - 1) q
  in
  let p = go (stop - 1) (if x < 0 then x else -x) in
  if x < 0 then begin
    Bytes.set b (p - 1) '-';
    p - 1
  end
  else p

let chronon_width c =
  if c = Temporal.Chronon.forever then 2 else int_width (c :> int)

let interval_width iv =
  3
  + chronon_width (Temporal.Interval.start iv)
  + chronon_width (Temporal.Interval.stop iv)

(* Cells made only of digits, '.' and '-' are right-aligned.  This keeps
   [%g]'s [1e+06], [nan] and [inf] left-aligned, and NULL (empty). *)
let is_numeric s =
  s <> ""
  && String.for_all (function '0' .. '9' | '.' | '-' -> true | _ -> false) s

let has_control s = String.exists (fun c -> c = '\n' || c = '\r') s

(* A framed table is cut into lines at every '\n', those inside a cell
   included; empty lines are dropped and '\r' removed.  So a framed text
   cell keeps byte [i] unless it is a '\r', or a '\n' right after another
   '\n' of the same cell: only such a pair encloses an empty line, as a
   cell's neighbours (separators, padding) are never empty.  Each kept
   '\n' adds a line. *)
let kept s i =
  match s.[i] with
  | '\r' -> false
  | '\n' -> i = 0 || s.[i - 1] <> '\n'
  | _ -> true

let render ~framed ~header rel =
  let headers =
    Array.of_list
      (List.map
         (fun c -> c.Schema.name)
         (Schema.columns (Trel.schema rel))
      @ [ "valid" ])
  in
  let ncols = Array.length headers - 1 in
  let nrows = Trel.cardinality rel in
  let widths = Array.map String.length headers in
  let breaks = ref 0 and dropped = ref 0 in
  let note_text s =
    if framed && has_control s then
      String.iteri
        (fun i c ->
          if not (kept s i) then incr dropped
          else if c = '\n' then incr breaks)
        s
  in
  Array.iter note_text headers;
  (* Float cells rendered in the first pass, per column, by row. *)
  let floats = Array.make ncols [||] in
  let widen i w = if w > widths.(i) then widths.(i) <- w in
  let row = ref 0 in
  Trel.iter
    (fun t ->
      let values = Tuple.values t in
      for i = 0 to ncols - 1 do
        match values.(i) with
        | Value.Int x -> widen i (int_width x)
        | Value.Float _ as v ->
            if Array.length floats.(i) = 0 then
              floats.(i) <- Array.make nrows "";
            let s = Value.to_string v in
            floats.(i).(!row) <- s;
            widen i (String.length s)
        | Value.Str s ->
            note_text s;
            widen i (String.length s)
        | Value.Null -> ()
      done;
      widen ncols (interval_width (Tuple.valid t));
      incr row)
    rel;
  (* Every line, rules included, is [line_len] bytes before the cuts. *)
  let line_len = Array.fold_left (fun acc w -> acc + w + 3) 1 widths in
  let lines = nrows + 4 in
  let size =
    if framed then (lines * (line_len + 1)) - !dropped
    else (lines * line_len) + lines - 1
  in
  let head = header (lines + !breaks) in
  let b = Bytes.create (String.length head + size) in
  let pos = ref 0 in
  let blit s =
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  let put c =
    Bytes.set b !pos c;
    incr pos
  in
  let pad n =
    for _ = 1 to n do
      put ' '
    done
  in
  let text_bytes s =
    if framed && has_control s then
      String.iteri (fun i c -> if kept s i then put c) s
    else blit s
  in
  let text i s =
    let gap = widths.(i) - String.length s in
    if is_numeric s then begin
      pad gap;
      blit s
    end
    else begin
      text_bytes s;
      pad gap
    end
  in
  (* A right-aligned Int: digits backwards from the cell's end, then
     the gap before them. *)
  let int_cell i x =
    let stop = !pos + widths.(i) in
    let first = int_back b stop x in
    pad (first - !pos);
    pos := stop
  in
  let chronon c =
    if c = Temporal.Chronon.forever then blit "oo"
    else begin
      let stop = !pos + int_width (c :> int) in
      ignore (int_back b stop (c :> int));
      pos := stop
    end
  in
  (* The last line of an unframed table has no '\n': it ends exactly at
     the end of the buffer. *)
  let newline () = if !pos < Bytes.length b then put '\n' in
  let rule () =
    put '+';
    Array.iter
      (fun w ->
        Bytes.fill b !pos (w + 2) '-';
        pos := !pos + w + 2;
        put '+')
      widths;
    newline ()
  in
  (* "| " before the first cell, " | " before each other one. *)
  let sep i =
    if i > 0 then put ' ';
    put '|';
    put ' '
  in
  let line_end () =
    put ' ';
    put '|';
    newline ()
  in
  blit head;
  rule ();
  Array.iteri
    (fun i h ->
      sep i;
      text i h)
    headers;
  line_end ();
  rule ();
  let row = ref 0 in
  Trel.iter
    (fun t ->
      let values = Tuple.values t in
      for i = 0 to ncols - 1 do
        sep i;
        match values.(i) with
        | Value.Int x -> int_cell i x
        | Value.Float _ -> text i floats.(i).(!row)
        | Value.Str s -> text i s
        | Value.Null -> pad widths.(i)
      done;
      sep ncols;
      let iv = Tuple.valid t in
      let start = !pos in
      put '[';
      chronon (Temporal.Interval.start iv);
      put ',';
      chronon (Temporal.Interval.stop iv);
      put ']';
      pad (widths.(ncols) - (!pos - start));
      line_end ();
      incr row)
    rel;
  rule ();
  assert (!pos = Bytes.length b);
  Bytes.unsafe_to_string b

let result_to_string rel = render ~framed:false ~header:(fun _ -> "") rel
let framed ~header rel = render ~framed:true ~header rel
let print_result rel = print_endline (result_to_string rel)
