(** The MiniC standard prelude shared by every target program. *)

val wrap : string -> string
(** [wrap body] is the prelude followed by [body] — a complete
    compilable program. The prelude holds little-endian input readers
    ([iu16]/[iu32]), buffer helpers ([copy_in]/[fill8]), [imin]/[imax],
    and ULEB128 decoding ([uleb]/[uleb_len]). *)
