(** readelf analog over the synthetic SELF object format (see the
    header comment in the implementation for the layout). *)

val name : string
val package : string

val source : string
(** Complete MiniC source (prelude included). *)

val planted_bugs : (string * string) list
(** (label, fault kind) ground truth; labels match the BUG(...) source
    annotations. *)

val seeds : unit -> (string * bytes) list
(** Labelled benign seeds; every one runs to a clean exit. *)
