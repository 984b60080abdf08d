(** Versioned, checksummed JSON documents on disk — the file discipline
    shared by campaign checkpoints ([pbse-snapshot/1]) and the serve
    layer's response cache ([pbse-store/1]).

    A document is one compact JSON line
    [{"schema": S, "checksum": "fnv1a64:<16 hex>", "payload": P}] where
    the checksum is FNV-1a-64 over the compact rendering of [P]. The
    JSON printer is deterministic and key-order preserving, so parse
    followed by re-render reproduces the checksummed bytes exactly.
    Writes are atomic: tmp + rename, with the previous file rotated to
    [path].bak as a fallback. *)

type error =
  | Corrupt of string  (** unparsable, truncated, or failed its checksum *)
  | Version_mismatch of string  (** a schema other than the expected one *)

val render : schema:string -> Json.t -> string
(** The whole document for [payload] (no trailing newline). *)

val parse : schema:string -> string -> (Json.t, error) result
(** Validate a document's schema and checksum and return its payload. *)

val write : path:string -> string -> unit
(** Atomic write of [data] plus a newline: the bytes go to [path].tmp,
    any existing [path] rotates to [path].bak, then the tmp renames into
    place. *)

val read : path:string -> (string, string) result
(** The whole file, or the [Sys_error] message, which always names
    [path]. *)
