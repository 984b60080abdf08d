(** Transport layer for [pbse-serve/2]: Unix-domain and TCP listeners
    behind one accept/dispatch loop, a self-pipe shutdown control, a
    timeout-aware client [connect], and a bounded buffered reader whose
    buffer boundary is under protocol control (an [in_channel] would
    happily read past a frame header into the raw payload). *)

type endpoint = Unix_socket of string | Tcp of string * int

val endpoint_to_string : endpoint -> string

val endpoint_of_string : string -> (endpoint, string) result
(** Parse a [HOST:PORT] TCP endpoint ([Unix_socket] paths are given
    directly by the caller, not parsed). *)

(** {2 Shutdown control (self-pipe)} *)

type control

val control_create : unit -> control

val request_stop : control -> unit
(** Set the stop flag and write one byte into the self-pipe, waking a
    blocked {!accept_loop} immediately. Safe to call from a signal
    handler and safe to repeat. *)

val control_close : control -> unit

(** {2 Listeners} *)

val listen : endpoint -> Unix.file_descr
(** Bind and listen (backlog 16). A Unix socket replaces any
    existing file at its path; a TCP listener sets [SO_REUSEADDR].
    Raises [Unix.Unix_error] on bind failure. *)

val close_listener : endpoint -> Unix.file_descr -> unit
(** Close, and unlink the socket file of a Unix endpoint. *)

val accept_loop :
  control -> Unix.file_descr list -> (Unix.file_descr -> unit) -> unit
(** Block (no timeout — the self-pipe is the wakeup) on every listener
    plus the control pipe; call the dispatcher with each accepted
    connection; return once {!request_stop} has been called. *)

(** {2 Client side} *)

val connect : ?timeout:float -> endpoint -> (Unix.file_descr, string) result
(** Connect to a server. With [timeout] (seconds), the connect itself is
    bounded (non-blocking + select) and the socket's later reads and
    writes inherit the same bound via [SO_RCVTIMEO]/[SO_SNDTIMEO]. *)

(** {2 Bounded reader} *)

type reader

val reader : Unix.file_descr -> reader

type read_error =
  | Eof
  | Overflow  (** line exceeded [max] — an oversized request/frame *)
  | Fail of string  (** read error or timeout *)

val read_line : ?max:int -> reader -> (string, read_error) result
(** One line, newline consumed but not returned (default [max] is
    {!Protocol.max_line}); never reads past the newline. A final
    unterminated line before EOF is returned as a line. *)

val drain_line : reader -> unit
(** Discard input through the next newline (or EOF, or 16x
    {!Protocol.max_line} bytes), so an error can be written back
    for an oversized line without resetting the peer mid-send. *)

val read_exact : reader -> int -> (string, read_error) result
(** Exactly [n] bytes (a frame's announced payload). *)
