open Temporal

(* One cell per constant interval: two timestamps, a state and a next
   pointer — the paper's 16-byte list node. *)
type 's cell = {
  mutable first : Chronon.t;
  mutable last : Chronon.t;
  mutable state : 's;
  mutable next : 's cell option;
}

type ('v, 's, 'r) t = {
  monoid : ('v, 's, 'r) Monoid.t;
  origin : Chronon.t;
  horizon : Chronon.t;
  inst : Instrument.t;
  full_walk : bool;
  head : 's cell;
  mutable cells : int;
}

let create ?(origin = Chronon.origin) ?(horizon = Chronon.forever)
    ?instrument ?(full_walk = false) monoid =
  if Chronon.( > ) origin horizon then
    invalid_arg "Linked_list.create: origin after horizon";
  let inst =
    match instrument with Some i -> i | None -> Instrument.create ()
  in
  Instrument.alloc inst;
  {
    monoid;
    origin;
    horizon;
    inst;
    full_walk;
    head =
      { first = origin; last = horizon; state = monoid.Monoid.empty;
        next = None };
    cells = 1;
  }

let check_interval t iv =
  if
    Chronon.( < ) (Interval.start iv) t.origin
    || Chronon.( > ) (Interval.stop iv) t.horizon
  then
    invalid_arg
      (Printf.sprintf "Linked_list.insert: %s outside [%s,%s]"
         (Interval.to_string iv)
         (Chronon.to_string t.origin)
         (Chronon.to_string t.horizon))

(* Splits [cell] so that a new cell starts at [at], returning the new
   (second) cell.  The state is duplicated: both halves were overlapped by
   exactly the tuples that overlapped the original. *)
let split_at t cell at =
  let second =
    { first = at; last = cell.last; state = cell.state; next = cell.next }
  in
  cell.last <- Chronon.pred at;
  cell.next <- Some second;
  Instrument.alloc t.inst;
  t.cells <- t.cells + 1;
  second

let insert t iv v =
  check_interval t iv;
  let m = t.monoid in
  let st = m.Monoid.inject v in
  let s = Interval.start iv and e = Interval.stop iv in
  (* Walk from the head: skip cells ending before [s], split the cells
     containing [s] and [e] if the timestamps fall strictly inside, and
     fold [st] into every cell within [s,e].  The list always partitions
     [origin,horizon], so the walk cannot run off the end. *)
  let rec walk cell =
    if Chronon.( < ) cell.last s then
      match cell.next with
      | Some next -> walk next
      | None -> assert false
    else if Chronon.( < ) cell.first s then walk (split_at t cell s)
    else if Chronon.( <= ) cell.last e then begin
      cell.state <- m.Monoid.combine cell.state st;
      if Chronon.( < ) cell.last e then
        match cell.next with
        | Some next -> walk next
        | None -> assert false
      else if t.full_walk then touch_rest cell
    end
    else begin
      ignore (split_at t cell (Chronon.succ e));
      cell.state <- m.Monoid.combine cell.state st;
      if t.full_walk then touch_rest cell
    end
  (* The paper's variant examines every remaining list element too; the
     comparison is performed purely for its cost. *)
  and touch_rest cell =
    match cell.next with
    | None -> ()
    | Some next ->
        ignore (Sys.opaque_identity (Chronon.compare next.last s));
        touch_rest next
  in
  walk t.head

let insert_all t data = Seq.iter (fun (iv, v) -> insert t iv v) data

let result t =
  let m = t.monoid in
  let rec collect acc cell =
    let seg =
      (Interval.make cell.first cell.last, m.Monoid.output cell.state)
    in
    match cell.next with
    | None -> List.rev (seg :: acc)
    | Some next -> collect (seg :: acc) next
  in
  Timeline.of_list (collect [] t.head)

let cell_count t = t.cells
let instrument t = t.inst

let eval ?origin ?horizon ?instrument ?full_walk monoid data =
  let t = create ?origin ?horizon ?instrument ?full_walk monoid in
  insert_all t data;
  result t
