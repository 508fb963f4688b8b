(* A small JSON value type with a writer and a recursive-descent reader:
   enough for BENCHMARK.json, the --json result files and the one-line
   result the benchmark prints last.  No JSON library ships with the
   toolchain, and the documents involved are small. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Numbers keep every digit a float carries ("%.17g"), so a measured
   value is reported exactly as measured; non-finite values, which JSON
   cannot spell, become null. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) l)
      ^ "}"

exception Parse_error of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n then
      match text.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && text.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = text.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub text !pos 4) in
              pos := !pos + 4;
              (* Only the escapes this module writes (control bytes) are
                 decoded exactly; others are kept as a best-effort byte. *)
              Buffer.add_char buf (Char.chr (code land 0xff))
          | c -> Buffer.add_char buf c);
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match text.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && text.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            expect '"';
            let k = string_body () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && text.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec elements acc =
            let v = value () in
            skip ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              elements (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          elements []
    | '"' ->
        incr pos;
        Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match text.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub text start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let of_file path = parse (In_channel.with_open_bin path In_channel.input_all)

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_str = function Str s -> s | _ -> ""
let to_num = function Num f -> f | _ -> Float.nan
