(** tiff2bw analog: grayscale conversion with a samples-per-pixel
    overrun and an off-by-one inversion row bound. *)

val name : string
val package : string

val source : string
(** Complete MiniC source (prelude included). *)

val planted_bugs : (string * string) list
(** (label, fault kind) ground truth; labels match the BUG(...) source
    annotations. *)

val seeds : unit -> (string * bytes) list
(** Labelled benign seeds; every one runs to a clean exit. *)

val seed_buggy_spp : unit -> bytes
(** Three samples per pixel over a one-sample buffer: spp oob-read. *)
