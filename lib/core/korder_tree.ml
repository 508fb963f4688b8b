open Temporal

exception
  Order_violation of {
    position : int;
    start : Chronon.t;
    frontier : Chronon.t;
  }

type ('v, 's, 'r) t = {
  monoid : ('v, 's, 'r) Monoid.t;
  origin : Chronon.t;
  horizon : Chronon.t;
  inst : Instrument.t;
  on_emit : (Interval.t -> 'r -> unit) option;
  window : Chronon.t Queue.t;  (* start times of the last 2k+1 tuples *)
  window_size : int;
  mutable root : 's Seg_node.t;
  mutable frontier : Chronon.t;  (* span start of the live tree *)
  mutable position : int;
  mutable emitted : (Interval.t * 'r) list;  (* reversed *)
  mutable finished : bool;
}

let create ?(origin = Chronon.origin) ?(horizon = Chronon.forever)
    ?instrument ?on_emit ~k monoid =
  if k < 0 then invalid_arg "Korder_tree.create: negative k";
  if Chronon.( > ) origin horizon then
    invalid_arg "Korder_tree.create: origin after horizon";
  let inst =
    match instrument with Some i -> i | None -> Instrument.create ()
  in
  Instrument.alloc inst;
  {
    monoid;
    origin;
    horizon;
    inst;
    on_emit;
    window = Queue.create ();
    window_size = (2 * k) + 1;
    root = Seg_node.leaf monoid.Monoid.empty;
    frontier = origin;
    position = 0;
    emitted = [];
    finished = false;
  }

let emit t iv state =
  let r = t.monoid.Monoid.output state in
  t.emitted <- (iv, r) :: t.emitted;
  match t.on_emit with None -> () | Some f -> f iv r

let check_interval t iv =
  if
    Chronon.( < ) (Interval.start iv) t.origin
    || Chronon.( > ) (Interval.stop iv) t.horizon
  then
    invalid_arg
      (Printf.sprintf "Korder_tree.insert: %s outside [%s,%s]"
         (Interval.to_string iv)
         (Chronon.to_string t.origin)
         (Chronon.to_string t.horizon))

let insert t iv v =
  if t.finished then invalid_arg "Korder_tree.insert: already finished";
  check_interval t iv;
  let s = Interval.start iv in
  if Chronon.( < ) s t.frontier then
    raise
      (Order_violation
         { position = t.position; start = s; frontier = t.frontier });
  let m = t.monoid in
  t.root <-
    Seg_node.insert ~combine:m.Monoid.combine ~empty:m.Monoid.empty
      ~inst:t.inst t.root ~lo:t.frontier ~hi:t.horizon ~start:s
      ~stop:(Interval.stop iv) (m.Monoid.inject v);
  t.position <- t.position + 1;
  Queue.push s t.window;
  if Queue.length t.window > t.window_size then begin
    (* The start time of the tuple 2k+1 positions back: every constant
       interval ending before it is final (paper, Section 5.3). *)
    let threshold = Queue.pop t.window in
    if Chronon.( > ) threshold t.frontier then begin
      let root, frontier =
        Seg_node.gc ~combine:m.Monoid.combine ~inst:t.inst ~threshold
          ~acc:m.Monoid.empty t.root ~lo:t.frontier ~hi:t.horizon
          ~emit:(fun iv state -> emit t iv state)
      in
      t.root <- root;
      t.frontier <- frontier
    end
  end

let insert_all t data = Seq.iter (fun (iv, v) -> insert t iv v) data

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let m = t.monoid in
    Seg_node.dfs ~combine:m.Monoid.combine ~acc:m.Monoid.empty t.root
      ~lo:t.frontier ~hi:t.horizon ~emit:(fun iv state -> emit t iv state);
    Instrument.free_many t.inst (Seg_node.size t.root)
  end;
  Timeline.of_list (List.rev t.emitted)

let live_nodes t = Seg_node.size t.root
let instrument t = t.inst

let eval ?origin ?horizon ?instrument ~k monoid data =
  let t = create ?origin ?horizon ?instrument ~k monoid in
  insert_all t data;
  finish t
