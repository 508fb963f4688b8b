open Temporal

type t = {
  schema : Schema.t;
  tuples : Tuple.t array;
  time_ordered : bool;
  lifespan : Interval.t option;
      (* Both filled by the one pass that builds the relation, so the
         planner reads them without walking the tuples.  Plain fields,
         not [Lazy.t]: relations are shared across domains, and forcing
         one lazy value from two domains at once raises. *)
}

let check_tuple schema tuple =
  let values = Tuple.values tuple in
  if Array.length values <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Trel: tuple arity %d, schema arity %d"
         (Array.length values) (Schema.arity schema));
  Array.iteri
    (fun i v ->
      match Value.type_of v with
      | None -> ()
      | Some ty ->
          let col = Schema.column schema i in
          if col.Schema.ty <> ty then
            invalid_arg
              (Printf.sprintf "Trel: column %s expects %s, got %s"
                 col.Schema.name
                 (Value.ty_to_string col.Schema.ty)
                 (Value.ty_to_string ty)))
    values

(* One pass over [tuples]: check each, and record whether they are in
   time order and the hull of their valid intervals. *)
let of_array schema tuples =
  let ordered = ref true in
  let lo = ref Chronon.forever and hi = ref Chronon.origin in
  Array.iteri
    (fun i tuple ->
      check_tuple schema tuple;
      if i > 0 && Tuple.compare_by_time tuples.(i - 1) tuple > 0 then
        ordered := false;
      lo := Chronon.min !lo (Tuple.start tuple);
      hi := Chronon.max !hi (Tuple.stop tuple))
    tuples;
  {
    schema;
    tuples;
    time_ordered = !ordered;
    lifespan =
      (if Array.length tuples = 0 then None else Some (Interval.make !lo !hi));
  }

let create schema tuples = of_array schema (Array.of_list tuples)
let schema t = t.schema
let cardinality t = Array.length t.tuples

let get t i =
  if i < 0 || i >= Array.length t.tuples then
    invalid_arg "Trel.get: out of range";
  t.tuples.(i)

let tuples t = Array.to_list t.tuples
let to_seq t = Array.to_seq t.tuples
let iter f t = Array.iter f t.tuples
let fold f acc t = Array.fold_left f acc t.tuples

let filter p t =
  of_array t.schema (Array.of_list (List.filter p (tuples t)))

let append a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Trel.append: schemas differ";
  of_array a.schema (Array.append a.tuples b.tuples)

let sort_by_time t =
  let copy = Array.copy t.tuples in
  Array.stable_sort Tuple.compare_by_time copy;
  { t with tuples = copy; time_ordered = true }

let is_time_ordered t = t.time_ordered
let lifespan t = t.lifespan

let agg_input t ~column =
  match Schema.index_of t.schema column with
  | None -> invalid_arg (Printf.sprintf "Trel.agg_input: no column %S" column)
  | Some i ->
      Seq.map
        (fun tuple -> (Tuple.valid tuple, Tuple.value tuple i))
        (to_seq t)

let intervals t = Seq.map Tuple.valid (to_seq t)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a@]" Schema.pp t.schema
    (Format.pp_print_list Tuple.pp)
    (tuples t)
