open Temporal

type ('v, 's, 'r) t = {
  monoid : ('v, 's, 'r) Monoid.t;
  origin : Chronon.t;
  horizon : Chronon.t;
  inst : Instrument.t;
  mutable root : 's Seg_node.t;
}

let create ?(origin = Chronon.origin) ?(horizon = Chronon.forever)
    ?instrument monoid =
  if Chronon.( > ) origin horizon then
    invalid_arg "Agg_tree.create: origin after horizon";
  let inst =
    match instrument with Some i -> i | None -> Instrument.create ()
  in
  Instrument.alloc inst;
  { monoid; origin; horizon; inst; root = Seg_node.leaf monoid.Monoid.empty }

let check_interval t iv =
  if
    Chronon.( < ) (Interval.start iv) t.origin
    || Chronon.( > ) (Interval.stop iv) t.horizon
  then
    invalid_arg
      (Printf.sprintf "Agg_tree.insert: %s outside [%s,%s]"
         (Interval.to_string iv)
         (Chronon.to_string t.origin)
         (Chronon.to_string t.horizon))

let insert t iv v =
  check_interval t iv;
  let m = t.monoid in
  t.root <-
    Seg_node.insert ~combine:m.Monoid.combine ~empty:m.Monoid.empty
      ~inst:t.inst t.root ~lo:t.origin ~hi:t.horizon ~start:(Interval.start iv)
      ~stop:(Interval.stop iv) (m.Monoid.inject v)

let insert_all t data = Seq.iter (fun (iv, v) -> insert t iv v) data

let result t =
  let m = t.monoid in
  let segments = ref [] in
  Seg_node.dfs ~combine:m.Monoid.combine ~acc:m.Monoid.empty t.root
    ~lo:t.origin ~hi:t.horizon ~emit:(fun iv state ->
      segments := (iv, m.Monoid.output state) :: !segments);
  Timeline.of_list (List.rev !segments)

let node_count t = Seg_node.size t.root
let depth t = Seg_node.depth t.root
let instrument t = t.inst

let render state_to_string t =
  Seg_node.render ~state_to_string t.root ~lo:t.origin ~hi:t.horizon

let eval ?origin ?horizon ?instrument monoid data =
  let t = create ?origin ?horizon ?instrument monoid in
  insert_all t data;
  result t
