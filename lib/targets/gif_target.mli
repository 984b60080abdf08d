(** gif2tiff analog over a GIF-like container with an LZW-style decoder. *)

val name : string
val package : string

val source : string
(** Complete MiniC source (prelude included). *)

val planted_bugs : (string * string) list
(** (label, fault kind) ground truth; labels match the BUG(...) source
    annotations. *)

val seeds : unit -> (string * bytes) list
(** Labelled benign seeds; every one runs to a clean exit. *)

val seed_buggy_colormap : unit -> bytes
(** A pixel value beyond the colour-table size: colormap oob-read. *)
