open Temporal

let node_bytes = 20

type 's node = Leaf of { mutable state : 's } | Node of 's inner

and 's inner = {
  split : Chronon.t;
  mutable left : 's node;
  mutable right : 's node;
  mutable state : 's;
  mutable height : int;
}

type ('v, 's, 'r) t = {
  monoid : ('v, 's, 'r) Monoid.t;
  origin : Chronon.t;
  horizon : Chronon.t;
  inst : Instrument.t;
  mutable root : 's node;
}

let height = function Leaf _ -> 1 | Node n -> n.height

let update_height n =
  n.height <- 1 + Stdlib.max (height n.left) (height n.right)

let balance_factor n = height n.left - height n.right

let absorb ~combine child state =
  match child with
  | Leaf l -> l.state <- combine state l.state
  | Node m -> m.state <- combine state m.state

(* Push a node's state down to both children, leaving it empty.  After
   this the node contributes nothing to any root-to-leaf path, so the
   subtree can be restructured without changing any path combination. *)
let push_down ~combine ~empty n =
  absorb ~combine n.left n.state;
  absorb ~combine n.right n.state;
  n.state <- empty

let rotate_right ~combine ~empty node =
  match node with
  | Node z -> (
      let pivot = z.left in
      match pivot with
      | Node y ->
          push_down ~combine ~empty z;
          push_down ~combine ~empty y;
          z.left <- y.right;
          update_height z;
          y.right <- node;
          update_height y;
          pivot
      | Leaf _ -> invalid_arg "Balanced_tree: rotate_right on leaf child")
  | Leaf _ -> invalid_arg "Balanced_tree: rotate_right on leaf"

let rotate_left ~combine ~empty node =
  match node with
  | Node z -> (
      let pivot = z.right in
      match pivot with
      | Node y ->
          push_down ~combine ~empty z;
          push_down ~combine ~empty y;
          z.right <- y.left;
          update_height z;
          y.left <- node;
          update_height y;
          pivot
      | Leaf _ -> invalid_arg "Balanced_tree: rotate_left on leaf child")
  | Leaf _ -> invalid_arg "Balanced_tree: rotate_left on leaf"

let rebalance ~combine ~empty node =
  match node with
  | Leaf _ -> node
  | Node z ->
      update_height z;
      let b = balance_factor z in
      if b > 1 then begin
        (match z.left with
        | Node y when balance_factor y < 0 ->
            z.left <- rotate_left ~combine ~empty z.left
        | Node _ | Leaf _ -> ());
        rotate_right ~combine ~empty node
      end
      else if b < -1 then begin
        (match z.right with
        | Node y when balance_factor y > 0 ->
            z.right <- rotate_right ~combine ~empty z.right
        | Node _ | Leaf _ -> ());
        rotate_left ~combine ~empty node
      end
      else node

(* Ensures a split exists at [b], where [lo <= b < hi] for the subtree's
   span [lo,hi].  An absent split turns the containing leaf into an
   internal node whose state is the old leaf's (both halves inherit it);
   the path back up is AVL-rebalanced. *)
let rec add_boundary ~combine ~empty ~inst node ~lo ~hi b =
  match node with
  | Leaf { state } ->
      Instrument.alloc inst;
      Instrument.alloc inst;
      Node
        {
          split = b;
          left = Leaf { state = empty };
          right = Leaf { state = empty };
          state;
          height = 2;
        }
  | Node n ->
      if Chronon.equal b n.split then node
      else begin
        if Chronon.( < ) b n.split then
          n.left <- add_boundary ~combine ~empty ~inst n.left ~lo ~hi:n.split b
        else
          n.right <-
            add_boundary ~combine ~empty ~inst n.right
              ~lo:(Chronon.succ n.split) ~hi b;
        rebalance ~combine ~empty node
      end

(* Standard segment-tree range update; boundaries for [s] and [e] have
   been inserted first, so every leaf reached is fully covered. *)
let rec range_add ~combine node ~lo ~hi ~start ~stop st =
  if Chronon.( <= ) start lo && Chronon.( <= ) hi stop then
    match node with
    | Leaf l -> l.state <- combine l.state st
    | Node n -> n.state <- combine n.state st
  else
    match node with
    | Leaf _ ->
        (* Unreachable: add_boundary aligned the leaves with [start,stop]. *)
        assert false
    | Node n ->
        if Chronon.( <= ) start n.split then
          range_add ~combine n.left ~lo ~hi:n.split ~start ~stop st;
        if Chronon.( > ) stop n.split then
          range_add ~combine n.right ~lo:(Chronon.succ n.split) ~hi ~start
            ~stop st

let rec dfs ~combine ~acc node ~lo ~hi ~emit =
  match node with
  | Leaf { state } -> emit (Interval.make lo hi) (combine acc state)
  | Node n ->
      let acc = combine acc n.state in
      dfs ~combine ~acc n.left ~lo ~hi:n.split ~emit;
      dfs ~combine ~acc n.right ~lo:(Chronon.succ n.split) ~hi ~emit

let rec size = function
  | Leaf _ -> 1
  | Node n -> 1 + size n.left + size n.right

let create ?(origin = Chronon.origin) ?(horizon = Chronon.forever)
    ?instrument monoid =
  if Chronon.( > ) origin horizon then
    invalid_arg "Balanced_tree.create: origin after horizon";
  let inst =
    match instrument with
    | Some i -> i
    | None -> Instrument.create ~node_bytes ()
  in
  Instrument.alloc inst;
  { monoid; origin; horizon; inst; root = Leaf { state = monoid.Monoid.empty } }

let check_interval t iv =
  if
    Chronon.( < ) (Interval.start iv) t.origin
    || Chronon.( > ) (Interval.stop iv) t.horizon
  then
    invalid_arg
      (Printf.sprintf "Balanced_tree.insert: %s outside [%s,%s]"
         (Interval.to_string iv)
         (Chronon.to_string t.origin)
         (Chronon.to_string t.horizon))

let insert t iv v =
  check_interval t iv;
  let m = t.monoid in
  let combine = m.Monoid.combine and empty = m.Monoid.empty in
  let s = Interval.start iv and e = Interval.stop iv in
  if Chronon.( > ) s t.origin then
    t.root <-
      add_boundary ~combine ~empty ~inst:t.inst t.root ~lo:t.origin
        ~hi:t.horizon (Chronon.pred s);
  if Chronon.( < ) e t.horizon then
    t.root <-
      add_boundary ~combine ~empty ~inst:t.inst t.root ~lo:t.origin
        ~hi:t.horizon e;
  range_add ~combine t.root ~lo:t.origin ~hi:t.horizon ~start:s ~stop:e
    (m.Monoid.inject v)

let insert_all t data = Seq.iter (fun (iv, v) -> insert t iv v) data

let result t =
  let m = t.monoid in
  let segments = ref [] in
  dfs ~combine:m.Monoid.combine ~acc:m.Monoid.empty t.root ~lo:t.origin
    ~hi:t.horizon ~emit:(fun iv state ->
      segments := (iv, m.Monoid.output state) :: !segments);
  Timeline.of_list (List.rev !segments)

let node_count t = size t.root
let depth t = height t.root
let instrument t = t.inst

let eval ?origin ?horizon ?instrument monoid data =
  let t = create ?origin ?horizon ?instrument monoid in
  insert_all t data;
  result t
