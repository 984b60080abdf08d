(** The [pbse-serve/2] wire protocol: typed request envelopes, framed
    responses and structured error codes (docs/serve.md has the full
    grammar).

    Every v2 message is one JSON object on one line. A request envelope
    is [{"pbse": 2, "id": ..., "client": ..., "progress": ...,
    "params": {...}}] and is parsed {e strictly}: unknown fields,
    duplicated fields and mistyped values are structured errors, never
    silently ignored. A request without a ["pbse"] member (the retired
    [pbse-serve/1] one-liner) is an [Unsupported_version] error like any
    other version but 2. Responses are framed events ([report] /
    [progress] / [error]); the report frame is followed by exactly
    [bytes] raw bytes of [pbse-report/1] JSON — raw rather than
    embedded, so the payload stays byte-identical to the CLI's. *)

val max_line : int
(** Longest request or frame line either side will read (65536 bytes
    including the newline); longer lines are an [Oversized_request]. *)

(** Structured error codes, rendered in kebab-case on the wire (see
    {!error_label}). *)
type error_code =
  | Bad_json  (** request line is not JSON *)
  | Bad_request  (** structurally invalid envelope or params *)
  | Unsupported_version  (** ["pbse"] names a version we don't speak *)
  | Unknown_target
  | Unknown_scheduler
  | Over_capacity  (** admission rejection; carries [retry_after] *)
  | Oversized_request  (** request line exceeded {!max_line} *)
  | Internal  (** campaign raised; message carries the exception *)

val error_label : error_code -> string

type request = {
  rq_id : string option;  (** echoed verbatim in every response frame *)
  rq_client : string option;  (** admission (quota) identity *)
  rq_progress : bool;  (** stream progress frames at round barriers *)
  rq_target : string;
  rq_deadline : int;
  rq_pool_scheduler : string;  (** [""] means the server's default *)
  rq_scheduler : string option;
  rq_jobs : int option;
  rq_lease : int;
  rq_share : bool;
      (** Retired: seedState sharing was removed, and the server answers
          [true] with [Bad_request]. Kept only because the benchmark
          harness builds this record with [rq_share = false]. *)
}

val parse_request : string -> (request, error_code * string) result
(** Parse one request line, dispatching on the ["pbse"] member: [2] →
    strict v2; absent or any other integer → [Unsupported_version]; not
    an integer → [Bad_request]. *)

val render_request : request -> string
(** The canonical v2 envelope for [r] (no trailing newline); omitted
    optional members are left out, not rendered as null. *)

(** One v2 response frame. [id] echoes the request's id (null on the
    wire when the request carried none). *)
type frame =
  | Report of { id : string option; bytes : int }
      (** followed by exactly [bytes] raw bytes of report JSON *)
  | Progress of { id : string option; round : int }
  | Error_frame of {
      id : string option;
      code : error_code;
      message : string;
      retry_after : int option;  (** whole seconds; [Over_capacity] only *)
    }

val render_frame : frame -> string
(** One JSON line, newline-terminated. *)

val parse_frame : string -> (frame, string) result
