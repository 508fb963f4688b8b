type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable closed : bool;
}

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    closed = false;
  }

let send ?trace t line =
  (match trace with
  | Some id ->
      output_string t.oc "TRACE ";
      output_string t.oc id;
      output_char t.oc ' '
  | None -> ());
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

(* [None] at the end of input, including a connection the peer reset. *)
let read_line_opt t =
  try Some (input_line t.ic) with End_of_file | Sys_error _ -> None

let read_reply t =
  match read_line_opt t with
  | None -> Error "connection closed before reply header"
  | Some header -> (
      match Protocol.parse_header header with
      | Error e -> Error e
      | Ok (Protocol.H_err msg) -> Ok (Protocol.Err msg)
      | Ok (Protocol.H_busy reason) -> Ok (Protocol.Busy reason)
      | Ok Protocol.H_pong -> Ok Protocol.Pong
      | Ok Protocol.H_bye -> Ok Protocol.Bye
      | Ok (Protocol.H_ok { count; degraded; trace }) ->
          let rec take n acc =
            if n = 0 then Ok (List.rev acc)
            else
              match read_line_opt t with
              | None ->
                  Error
                    (Printf.sprintf
                       "connection closed inside OK payload (%d of %d lines)"
                       (count - n) count)
              | Some line -> take (n - 1) (line :: acc)
          in
          Result.map
            (fun payload -> Protocol.Ok_reply { degraded; trace; payload })
            (take count []))

let request ?trace t line =
  send ?trace t line;
  read_reply t

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
