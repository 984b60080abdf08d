(** pngtest analog over the synthetic MNG image format, carrying the
    CVE-2015-7981 and CVE-2015-8540 analogs. *)

val name : string
val package : string

val source : string
(** Complete MiniC source (prelude included). *)

val planted_bugs : (string * string) list
(** (label, fault kind) ground truth; labels match the BUG(...) source
    annotations. *)

val seeds : unit -> (string * bytes) list
(** Labelled benign seeds; every one runs to a clean exit. *)

val seed_buggy_keyword : unit -> bytes
(** All-space tEXt keyword: triggers the keyword-trim underflow. *)

val seed_buggy_month : unit -> bytes
(** tIME month byte 0: triggers the rfc1123 month-index read. *)
