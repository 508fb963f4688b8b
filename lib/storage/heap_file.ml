open Relation

let default_page_size = 8192
let magic = "TAG1"
let version = 2
let trailer_bytes = 4

exception Corrupt_page of { path : string; page : int }

let () =
  Printexc.register_printer (function
    | Corrupt_page { path; page } ->
        Some
          (Printf.sprintf "Heap_file.Corrupt_page(%s, page %d)" path page)
    | _ -> None)

let schema_to_string schema =
  String.concat ","
    (List.map
       (fun c ->
         Printf.sprintf "%s:%s" c.Schema.name (Value.ty_to_string c.Schema.ty))
       (Schema.columns schema))

let schema_of_string text =
  let column decl =
    match String.index_opt decl ':' with
    | None -> invalid_arg "Heap_file: malformed schema in header"
    | Some i -> (
        let name = String.sub decl 0 i in
        let ty_s = String.sub decl (i + 1) (String.length decl - i - 1) in
        match Value.ty_of_string ty_s with
        | Some ty -> { Schema.name; ty }
        | None -> invalid_arg "Heap_file: unknown column type in header")
  in
  Schema.make (List.map column (String.split_on_char ',' text))

(* Header page layout: magic(4) version(4) page_size(4) slot_bytes(4)
   count(8) schema_len(4) schema bytes, zero-padded to page_size minus
   the 4-byte CRC trailer shared with data pages (format version 2;
   version-1 files have no trailers and are still readable). *)
let header_fixed = 4 + 4 + 4 + 4 + 8 + 4

(* Stamp the CRC-32 of everything before the trailer into the last 4
   bytes of the page. *)
let seal_page ~page_size buf =
  Bytes.set_int32_le buf (page_size - trailer_bytes)
    (Codec.crc32 buf ~pos:0 ~len:(page_size - trailer_bytes))

let verify_page ~page_size buf =
  Bytes.get_int32_le buf (page_size - trailer_bytes)
  = Codec.crc32 buf ~pos:0 ~len:(page_size - trailer_bytes)

let encode_header ~page_size ~slot_bytes ~count schema =
  let decl = schema_to_string schema in
  if header_fixed + String.length decl > page_size - trailer_bytes then
    invalid_arg "Heap_file: schema declaration does not fit the header page";
  let buf = Bytes.make page_size '\000' in
  Bytes.blit_string magic 0 buf 0 4;
  Bytes.set_int32_le buf 4 (Int32.of_int version);
  Bytes.set_int32_le buf 8 (Int32.of_int page_size);
  Bytes.set_int32_le buf 12 (Int32.of_int slot_bytes);
  Bytes.set_int64_le buf 16 (Int64.of_int count);
  Bytes.set_int32_le buf 24 (Int32.of_int (String.length decl));
  Bytes.blit_string decl 0 buf 28 (String.length decl);
  seal_page ~page_size buf;
  buf

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = {
  oc : out_channel;
  schema : Schema.t;
  page_size : int;
  slot_bytes : int;
  slots_per_page : int;
  page : bytes;
  w_stats : Io_stats.t;
  mutable used : int;  (* slots in the current page *)
  mutable count : int;
  mutable w_closed : bool;
}

let create ?(page_size = default_page_size)
    ?(slot_bytes = Codec.default_slot_bytes) ~stats path schema =
  let slots_per_page = (page_size - 4 - trailer_bytes) / slot_bytes in
  if slots_per_page < 1 then
    invalid_arg "Heap_file.create: page cannot hold a single slot";
  (* Validate the schema fits before touching the file. *)
  ignore (encode_header ~page_size ~slot_bytes ~count:0 schema);
  let oc = open_out_bin path in
  (* Reserve the header page; the real header lands at close, when the
     tuple count is known. *)
  output_bytes oc (Bytes.make page_size '\000');
  {
    oc;
    schema;
    page_size;
    slot_bytes;
    slots_per_page;
    page = Bytes.make page_size '\000';
    w_stats = stats;
    used = 0;
    count = 0;
    w_closed = false;
  }

let flush_page w =
  if w.used > 0 then begin
    Bytes.set_int32_le w.page 0 (Int32.of_int w.used);
    seal_page ~page_size:w.page_size w.page;
    output_bytes w.oc w.page;
    Io_stats.write_page w.w_stats;
    Bytes.fill w.page 0 w.page_size '\000';
    w.used <- 0
  end

let check_tuple w tuple =
  let values = Tuple.values tuple in
  if Array.length values <> Schema.arity w.schema then
    invalid_arg "Heap_file.append: tuple arity disagrees with the schema"

let append w tuple =
  if w.w_closed then invalid_arg "Heap_file.append: writer is closed";
  check_tuple w tuple;
  Codec.encode_into ~slot_bytes:w.slot_bytes tuple w.page
    ~pos:(4 + (w.used * w.slot_bytes));
  w.used <- w.used + 1;
  w.count <- w.count + 1;
  if w.used = w.slots_per_page then flush_page w

let close_writer w =
  if not w.w_closed then begin
    w.w_closed <- true;
    flush_page w;
    seek_out w.oc 0;
    output_bytes w.oc
      (encode_header ~page_size:w.page_size ~slot_bytes:w.slot_bytes
         ~count:w.count w.schema);
    Io_stats.write_page w.w_stats;
    close_out w.oc
  end

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type reader = {
  ic : in_channel;
  r_path : string;
  r_schema : Schema.t;
  r_version : int;
  r_page_size : int;
  r_slot_bytes : int;
  r_count : int;
  r_pages : int;
  r_stats : Io_stats.t;
  r_fault : Fault.t option;
  mutable r_closed : bool;
}

let open_reader ?fault ~stats path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> invalid_arg ("Heap_file.open_reader: " ^ msg)
  in
  let head = Bytes.create header_fixed in
  (try really_input ic head 0 header_fixed
   with End_of_file ->
     close_in ic;
     invalid_arg "Heap_file.open_reader: truncated header");
  if Bytes.sub_string head 0 4 <> magic then begin
    close_in ic;
    invalid_arg "Heap_file.open_reader: bad magic (not a heap file)"
  end;
  let file_version = Int32.to_int (Bytes.get_int32_le head 4) in
  if file_version < 1 || file_version > version then begin
    close_in ic;
    invalid_arg
      (Printf.sprintf "Heap_file.open_reader: unsupported format version %d"
         file_version)
  end;
  let page_size = Int32.to_int (Bytes.get_int32_le head 8) in
  let slot_bytes = Int32.to_int (Bytes.get_int32_le head 12) in
  let count = Int64.to_int (Bytes.get_int64_le head 16) in
  let decl_len = Int32.to_int (Bytes.get_int32_le head 24) in
  let decl = really_input_string ic decl_len in
  Io_stats.read_page stats;
  (* Version-2 headers carry the same CRC trailer as data pages. *)
  if file_version >= 2 then begin
    let page = Bytes.create page_size in
    seek_in ic 0;
    (try really_input ic page 0 page_size
     with End_of_file ->
       close_in ic;
       invalid_arg "Heap_file.open_reader: truncated header page");
    if not (verify_page ~page_size page) then begin
      close_in ic;
      Io_stats.corrupt_page stats;
      raise (Corrupt_page { path; page = -1 })
    end
  end;
  let schema = schema_of_string decl in
  let file_len = in_channel_length ic in
  let pages = (file_len / page_size) - 1 in
  {
    ic;
    r_path = path;
    r_schema = schema;
    r_version = file_version;
    r_page_size = page_size;
    r_slot_bytes = slot_bytes;
    r_count = count;
    r_pages = pages;
    r_stats = stats;
    r_fault = fault;
    r_closed = false;
  }

let schema r = r.r_schema
let cardinality r = r.r_count
let page_size r = r.r_page_size
let slot_bytes r = r.r_slot_bytes
let data_pages r = r.r_pages
let format_version r = r.r_version

let max_read_attempts = 3
let backoff_base_s = 0.0005

(* One physical page read: pull the bytes, let the fault injector have
   its way with them, retry (with doubled backoff) on a transient fault,
   and verify the CRC trailer on version-2 files.  Every retried read is
   charged to the stats twice: once as a page read, once as a retry. *)
let read_page r index buf =
  let rec attempt n =
    seek_in r.ic ((index + 1) * r.r_page_size);
    really_input r.ic buf 0 r.r_page_size;
    Io_stats.read_page r.r_stats;
    match
      Option.iter
        (fun f -> Fault.apply f ~path:r.r_path ~page:index ~attempt:n buf)
        r.r_fault
    with
    | () -> ()
    | exception Fault.Transient_read_error _ when n + 1 < max_read_attempts ->
        Io_stats.retry r.r_stats;
        Unix.sleepf (backoff_base_s *. float_of_int (1 lsl n));
        attempt (n + 1)
  in
  attempt 0;
  if r.r_version >= 2 && not (verify_page ~page_size:r.r_page_size buf) then begin
    Io_stats.corrupt_page r.r_stats;
    raise (Corrupt_page { path = r.r_path; page = index })
  end

let scan ?(on_corrupt = `Fail) r =
  let rec page_seq p () =
    if r.r_closed then invalid_arg "Heap_file.scan: reader is closed";
    if p >= r.r_pages then Seq.Nil
    else begin
      let buf = Bytes.create r.r_page_size in
      match read_page r p buf with
      | () ->
          let slots = Int32.to_int (Bytes.get_int32_le buf 0) in
          let tuples =
            List.init slots (fun i ->
                Codec.decode r.r_schema buf ~pos:(4 + (i * r.r_slot_bytes)))
          in
          Seq.append (List.to_seq tuples) (page_seq (p + 1)) ()
      | exception Corrupt_page _ when on_corrupt = `Skip ->
          (* Skip-and-count: the page was charged to the stats' corrupt
             counter by [read_page]; its tuples are dropped, the scan
             continues. *)
          page_seq (p + 1) ()
    end
  in
  page_seq 0

let close_reader r =
  if not r.r_closed then begin
    r.r_closed <- true;
    close_in r.ic
  end

(* ------------------------------------------------------------------ *)
(* Whole relations                                                     *)
(* ------------------------------------------------------------------ *)

let write_relation ?page_size ?slot_bytes ~stats path rel =
  Obs.Trace.with_span
    ~attrs:[ ("path", path) ]
    "heap:write-relation"
    (fun () ->
      let w = create ?page_size ?slot_bytes ~stats path (Trel.schema rel) in
      Fun.protect
        ~finally:(fun () -> close_writer w)
        (fun () -> Trel.iter (append w) rel))

let read_relation ?fault ?on_corrupt ~stats path =
  Obs.Trace.with_span
    ~attrs:[ ("path", path) ]
    "heap:read-relation"
    (fun () ->
      let r = open_reader ?fault ~stats path in
      Fun.protect
        ~finally:(fun () -> close_reader r)
        (fun () -> Trel.create (schema r) (List.of_seq (scan ?on_corrupt r))))
