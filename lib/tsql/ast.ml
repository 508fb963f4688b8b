type agg_fun = Count | Sum | Avg | Min | Max

type select_item =
  | Column of string
  | Aggregate of { fn : agg_fun; arg : string option; distinct : bool }
  | Star

type comparison_op = Eq | Neq | Lt | Le | Gt | Ge

type literal = Lint of int | Lfloat of float | Lstring of string

type predicate = { column : string; op : comparison_op; value : literal }

type temporal_grouping = By_instant | By_span of int

type window = { w_start : int; w_stop : int option }

type join_clause = { jright : string; jpred : Join.Predicate.t }
(* [FROM from JOIN jright ON from.vt <pred> jright.vt]; the ON clause's
   side order is fixed by the parser (left = [from]), so only the right
   relation and the predicate need to be carried. *)

type query = {
  select : select_item list;
  from : string;
  join : join_clause option;
  during : window option;
  where : predicate list;
  group_by : string list;
  grouping : temporal_grouping;
  using : string option;
  on_error : Tempagg.Engine.on_error option;
}

let agg_fun_to_string = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let op_to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Literals print in the lexer's own spelling, so printed text reads
   back to the same literal: a float as the shortest [digits.digits]
   that parses to it (the lexer takes no exponent), a string with its
   quotes doubled. *)
let literal_to_string = function
  | Lint n -> string_of_int n
  | Lfloat f ->
      let rec shortest p =
        let s = Printf.sprintf "%.*f" p f in
        if p >= 1074 || float_of_string s = f then s else shortest (p + 1)
      in
      shortest 1
  | Lstring s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let select_item_to_string = function
  | Column name -> name
  | Aggregate { fn; arg; distinct } ->
      Printf.sprintf "%s(%s%s)" (agg_fun_to_string fn)
        (if distinct then "DISTINCT " else "")
        (Option.value arg ~default:"*")
  | Star -> "*"

let to_string q =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  Buffer.add_string buf
    (String.concat ", " (List.map select_item_to_string q.select));
  Buffer.add_string buf (" FROM " ^ q.from);
  (match q.join with
  | Some { jright; jpred } ->
      Buffer.add_string buf
        (Printf.sprintf " JOIN %s ON %s.vt %s %s.vt" jright q.from
           (Join.Predicate.to_string jpred)
           jright)
  | None -> ());
  (match q.during with
  | Some { w_start; w_stop } ->
      Buffer.add_string buf
        (Printf.sprintf " DURING [%d,%s]" w_start
           (match w_stop with Some e -> string_of_int e | None -> "oo"))
  | None -> ());
  if q.where <> [] then begin
    Buffer.add_string buf " WHERE ";
    Buffer.add_string buf
      (String.concat " AND "
         (List.map
            (fun p ->
              Printf.sprintf "%s %s %s" p.column (op_to_string p.op)
                (literal_to_string p.value))
            q.where))
  end;
  let groups =
    q.group_by
    @ (match q.grouping with
      | By_instant -> []
      | By_span n -> [ Printf.sprintf "SPAN %d" n ])
  in
  if groups <> [] then
    Buffer.add_string buf (" GROUP BY " ^ String.concat ", " groups);
  (match q.using with
  | Some algo -> Buffer.add_string buf (" USING " ^ algo)
  | None -> ());
  (match q.on_error with
  | Some policy ->
      Buffer.add_string buf
        (" ON ERROR "
        ^ String.uppercase_ascii (Tempagg.Engine.on_error_to_string policy))
  | None -> ());
  Buffer.contents buf

type statement =
  | Select of query
  | Explain_analyze of query
  | Create_view of { name : string; definition : query }
  | Refresh_view of string
  | Drop_view of string
  | Create_table of {
      name : string;
      columns : (string * Relation.Value.ty) list;
      boundaries : int list;
          (* interior PARTITION BY RANGE starts; [] = one shard *)
    }
  | Insert_into of { relation : string; values : literal list; window : window }
  | Delete_from of { relation : string; where : predicate list }
  | Analyze of string  (* one sampled scan refreshing the relation's stats *)
  | Show_stats
  | Show_partitions
  | Show_trace
  | Show_recorder
  | Show_metrics
  | Show_slo

let window_to_string { w_start; w_stop } =
  Printf.sprintf "[%d,%s]" w_start
    (match w_stop with Some e -> string_of_int e | None -> "oo")

let ty_to_string ty =
  String.uppercase_ascii (Relation.Value.ty_to_string ty)

let statement_to_string = function
  | Select q -> to_string q
  | Analyze name -> "ANALYZE " ^ name
  | Show_stats -> "SHOW STATS"
  | Show_partitions -> "SHOW PARTITIONS"
  | Show_trace -> "SHOW TRACE"
  | Show_recorder -> "SHOW RECORDER"
  | Show_metrics -> "SHOW METRICS"
  | Show_slo -> "SHOW SLO"
  | Create_table { name; columns; boundaries } ->
      Printf.sprintf "CREATE TABLE %s (%s) PARTITION BY RANGE (vt)%s" name
        (String.concat ", "
           (List.map
              (fun (col, ty) -> Printf.sprintf "%s %s" col (ty_to_string ty))
              columns))
        (match boundaries with
        | [] -> ""
        | bs ->
            Printf.sprintf " (%s)"
              (String.concat ", " (List.map string_of_int bs)))
  | Explain_analyze q -> "EXPLAIN ANALYZE " ^ to_string q
  | Create_view { name; definition } ->
      Printf.sprintf "CREATE VIEW %s AS %s" name (to_string definition)
  | Refresh_view name -> "REFRESH VIEW " ^ name
  | Drop_view name -> "DROP VIEW " ^ name
  | Insert_into { relation; values; window } ->
      Printf.sprintf "INSERT INTO %s VALUES (%s) DURING %s" relation
        (String.concat ", " (List.map literal_to_string values))
        (window_to_string window)
  | Delete_from { relation; where } ->
      Printf.sprintf "DELETE FROM %s%s" relation
        (match where with
        | [] -> ""
        | ps ->
            " WHERE "
            ^ String.concat " AND "
                (List.map
                   (fun p ->
                     Printf.sprintf "%s %s %s" p.column (op_to_string p.op)
                       (literal_to_string p.value))
                   ps))
