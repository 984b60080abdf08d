(* Transport layer shared by every pbse-serve endpoint: Unix-domain and
   TCP listeners feed one accept loop, a self-pipe control turns a
   signal into an immediate wakeup (no stop-flag polling), and a small
   bounded reader gives both sides line/exact reads that never buffer
   past what the protocol frame owns. *)

type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let endpoint_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad endpoint %S (want HOST:PORT)" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65_536 && host <> "" -> Ok (Tcp (host, p))
    | _ -> Error (Printf.sprintf "bad endpoint %S (want HOST:PORT)" s))

let resolve_inet host port =
  match Unix.inet_addr_of_string host with
  | addr -> Unix.ADDR_INET (addr, port)
  | exception Failure _ -> (
    match
      Unix.getaddrinfo host (string_of_int port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
    with
    | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ ->
      Unix.ADDR_INET (addr, port)
    | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

(* --- self-pipe control ------------------------------------------------------

   [request_stop] is called from signal handlers: it sets the atomic and
   writes one byte into the pipe, so a select blocked on the listen fds
   returns immediately instead of timing out on a poll interval. Both
   operations are harmless to repeat; the pipe is drained (not read to
   exhaustion) by whoever wakes. *)

type control = {
  stop : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let control_create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  { stop = Atomic.make false; wake_r; wake_w }

let request_stop c =
  Atomic.set c.stop true;
  try ignore (Unix.write_substring c.wake_w "x" 0 1)
  with Unix.Unix_error _ -> () (* pipe full: a wakeup is already pending *)

let stopping c = Atomic.get c.stop

let control_close c =
  (try Unix.close c.wake_r with Unix.Unix_error _ -> ());
  try Unix.close c.wake_w with Unix.Unix_error _ -> ()

(* --- listeners -------------------------------------------------------------- *)

let backlog = 16

let listen endpoint =
  match endpoint with
  | Unix_socket path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd backlog;
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (resolve_inet host port);
       Unix.listen fd backlog
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd

let close_listener endpoint fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match endpoint with
  | Unix_socket path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* Block on every listener plus the control pipe; dispatch each accepted
   connection, return when the control asks to stop. No timeout: the
   self-pipe write is the only wakeup a shutdown needs. *)
let accept_loop control fds dispatch =
  let drain_wake () =
    let buf = Bytes.create 64 in
    try ignore (Unix.read control.wake_r buf 0 64) with Unix.Unix_error _ -> ()
  in
  let rec loop () =
    if not (stopping control) then begin
      match Unix.select (control.wake_r :: fds) [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
        if List.mem control.wake_r ready then drain_wake ();
        List.iter
          (fun fd ->
            if fd <> control.wake_r then
              match Unix.accept ~cloexec:true fd with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | client, _ -> dispatch client)
          ready;
        loop ()
    end
  in
  loop ()

(* --- client connect --------------------------------------------------------- *)

let addr_of_endpoint = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (Unix.PF_INET, resolve_inet host port)

(* Connect with an optional wall-clock budget that also bounds every
   later read/write on the socket (SO_RCVTIMEO/SO_SNDTIMEO), so a hung
   server can't hold `pbse request --timeout' forever. The timeout path
   uses a non-blocking connect completed by select. *)
let connect ?timeout endpoint =
  match addr_of_endpoint endpoint with
  | exception Failure e -> Error e
  | domain, addr -> (
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error msg)
        fmt
    in
    let where = endpoint_to_string endpoint in
    match timeout with
    | None -> (
      match Unix.connect fd addr with
      | () -> Ok fd
      | exception Unix.Unix_error (err, _, _) ->
        fail "cannot connect to %s: %s" where (Unix.error_message err))
    | Some t -> (
      let t = if t <= 0.0 then 0.001 else t in
      Unix.set_nonblock fd;
      let finish () =
        match Unix.getsockopt_error fd with
        | Some err ->
          fail "cannot connect to %s: %s" where (Unix.error_message err)
        | None ->
          Unix.clear_nonblock fd;
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO t
           with Unix.Unix_error _ -> () (* UDS on some systems: best effort *));
          Ok fd
      in
      match Unix.connect fd addr with
      | () -> finish ()
      | exception Unix.Unix_error (Unix.EINPROGRESS, _, _)
      | exception Unix.Unix_error (Unix.EWOULDBLOCK, _, _)
      | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> (
        match Unix.select [] [ fd ] [] t with
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          fail "connect to %s interrupted" where
        | _, [], _ -> fail "connect to %s timed out after %.3gs" where t
        | _, _ :: _, _ -> finish ())
      | exception Unix.Unix_error (err, _, _) ->
        fail "cannot connect to %s: %s" where (Unix.error_message err)))

(* --- bounded reader ---------------------------------------------------------

   A minimal buffered reader over a file descriptor. [read_line] never
   consumes bytes past its newline and refuses lines over [max] bytes;
   [read_exact] reads a known payload length. Unlike in_channel, the
   buffer boundary is under protocol control, so a frame header's raw
   payload always starts exactly where the header line ended. *)

type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t; (* bytes received but not yet consumed *)
}

let reader fd = { fd; buf = Buffer.create 512 }

type read_error = Eof | Overflow | Fail of string

let refill r =
  let chunk = Bytes.create 4096 in
  match Unix.read r.fd chunk 0 4096 with
  | 0 -> Error Eof
  | n ->
    Buffer.add_subbytes r.buf chunk 0 n;
    Ok ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Error (Fail "read timed out")
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok ()
  | exception Unix.Unix_error (err, _, _) -> Error (Fail (Unix.error_message err))

let take r n =
  let s = Buffer.sub r.buf 0 n in
  let rest = Buffer.sub r.buf n (Buffer.length r.buf - n) in
  Buffer.clear r.buf;
  Buffer.add_string r.buf rest;
  s

let rec read_line ?(max = Protocol.max_line) r =
  let contents = Buffer.contents r.buf in
  match String.index_opt contents '\n' with
  | Some i when i < max ->
    let line = take r (i + 1) in
    Ok (String.sub line 0 i)
  | Some _ -> Error Overflow
  | None ->
    if Buffer.length r.buf >= max then Error Overflow
    else (
      match refill r with
      | Ok () -> read_line ~max r
      | Error Eof when Buffer.length r.buf > 0 ->
        (* a final unterminated line is still a line *)
        Ok (take r (Buffer.length r.buf))
      | Error e -> Error e)

let drain_limit = 16 * Protocol.max_line

let drain_line r =
  let rec go dropped =
    let contents = Buffer.contents r.buf in
    match String.index_opt contents '\n' with
    | Some i -> ignore (take r (i + 1))
    | None ->
      let dropped = dropped + Buffer.length r.buf in
      Buffer.clear r.buf;
      if dropped < drain_limit then
        match refill r with Ok () -> go dropped | Error _ -> ()
  in
  go 0

let rec read_exact r n =
  if Buffer.length r.buf >= n then Ok (take r n)
  else
    match refill r with
    | Ok () -> read_exact r n
    | Error Eof -> Error (Fail "truncated payload")
    | Error Overflow -> assert false
    | Error (Fail _ as e) -> Error e
