(* The system under test as real processes: [bin/main.exe] spawned with
   generated arguments, reached over pipes or sockets.  Every child is
   tracked so that none outlives the benchmark. *)

module Frame = Nakamoto_wire.Frame
module Msg = Nakamoto_wire.Message

let exe = ref "bin/main.exe"
let children : int list ref = ref []

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spawn ?stdin ?stdout ?stderr args =
  let null = devnull () in
  let pick = function Some fd -> fd | None -> null in
  let pid =
    Unix.create_process !exe
      (Array.of_list (!exe :: args))
      (pick stdin) (pick stdout) (pick stderr)
  in
  Unix.close null;
  children := pid :: !children;
  pid

let rec waitpid_eintr pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid

(* Wait for a child that is expected to exit on its own. *)
let wait pid =
  let status = waitpid_eintr pid in
  children := List.filter (( <> ) pid) !children;
  status

let kill pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (wait pid)

let kill_all () = List.iter kill !children

let () =
  (* Nothing the benchmark started outlives it: no process, no file. *)
  at_exit (fun () ->
      kill_all ();
      Util.rm_rf Util.run_dir);
  (* A daemon that dies mid-write must surface as a failed check, not
     kill the benchmark. *)
  Nakamoto_serve.Conn.ignore_sigpipe ()

(* ---- connecting -------------------------------------------------- *)

type addr = Unix_path of string | Tcp_port of int

let sockaddr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp_port port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Dial with a 0.1 ms retry step: [Serve.Conn.connect] retries every
   50 ms, which would quantize the set-up time being measured. *)
let connect ?(timeout = 10.) addr =
  let deadline = Util.now () +. timeout in
  let rec go () =
    let sa = sockaddr addr in
    let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | () ->
      (match addr with
      | Tcp_port _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
      | Unix_path _ -> ());
      fd
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      when Util.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.0001;
      go ()
  in
  go ()

let handshake fd =
  let ch = Frame.Channel.of_fd fd in
  match Nakamoto_serve.Conn.handshake ~timeout:10. ~role:Msg.Client ch with
  | Ok () -> ch
  | Error e -> failwith ("handshake: " ^ e)

(* The daemon prints "serve: tcp port N" on stderr once bound; stderr
   goes to a file that is polled until the line appears. *)
let tcp_port_of_log ?(timeout = 10.) log =
  let deadline = Util.now () +. timeout in
  let prefix = "serve: tcp port " in
  let rec go () =
    let found =
      if Sys.file_exists log then
        List.find_map
          (fun l ->
            if String.starts_with ~prefix l then
              int_of_string_opt
                (String.trim
                   (String.sub l (String.length prefix)
                      (String.length l - String.length prefix)))
            else None)
          (String.split_on_char '\n' (Util.read_file log))
      else None
    in
    match found with
    | Some p -> p
    | None when Util.now () < deadline ->
      Unix.sleepf 0.0001;
      go ()
    | None -> failwith "serve never reported its tcp port"
  in
  go ()

let send_msg fd m =
  let tag, payload = Msg.encode m in
  let s = Frame.encode ~tag ~payload () in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* A pipelining reader: bytes from a non-blocking poll loop go through
   the frame decoder; complete frames come back decoded. *)
type reader = { fd : Unix.file_descr; dec : Frame.Decoder.t; buf : Bytes.t }

let reader fd = { fd; dec = Frame.Decoder.create (); buf = Bytes.create 65536 }

(* Read what is available (the fd is known readable) and return every
   complete message, in order; [Error] when the peer closed or spoke
   something undecodable. *)
let read_available r =
  let k = Unix.read r.fd r.buf 0 (Bytes.length r.buf) in
  if k = 0 then Error "connection closed by the daemon"
  else begin
    Frame.Decoder.feed r.dec (Bytes.sub_string r.buf 0 k);
    let rec drain acc =
      match Frame.Decoder.next r.dec with
      | `Awaiting -> Ok (List.rev acc)
      | `Bad e -> Error ("bad frame: " ^ e)
      | `Frame (tag, payload) -> (
        match Msg.decode ~tag ~payload with
        | Ok m -> drain (m :: acc)
        | Error e -> Error ("undecodable frame: " ^ e))
    in
    drain []
  end
