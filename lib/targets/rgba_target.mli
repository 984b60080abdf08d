(** tiff2rgba analog — the paper's headline case study: the CIELab
    conversion reads h*w*3 bytes from a fixed 257-byte buffer. *)

val name : string
val package : string

val source : string
(** Complete MiniC source (prelude included). *)

val planted_bugs : (string * string) list
(** (label, fault kind) ground truth; labels match the BUG(...) source
    annotations. *)

val seeds : unit -> (string * bytes) list
(** Labelled benign seeds; every one runs to a clean exit. *)

val seed_buggy : unit -> bytes
(** h*w*3 = 270 > 257: triggers the CIELab oob-read (paper Fig. 5b). *)
