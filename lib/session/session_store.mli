(** The serve layer's warm cache: rendered campaign {e residues} (final
    response bodies as plain strings, keyed by campaign fingerprint)
    under strict LRU eviction. {!save}/{!load} carry them across a
    server restart as a checksummed [pbse-store/1] document, so a deploy
    does not flush the cache.

    Hit/miss/evict/reload totals are exposed directly. All operations
    are mutex-guarded; one store may be shared by concurrent server
    clients. *)

type t

val create : ?cap:int -> unit -> t
(** [cap] (default 64, clamped to at least 1) bounds the number of
    residues; the least-recently-used one beyond it is evicted. *)

val find_residue : t -> fingerprint:string -> string option
(** Recall a rendered residue (counts a hit or miss, touches LRU
    order). *)

val put_residue : t -> fingerprint:string -> string -> unit
(** Record the rendered response body of a finished campaign; may evict
    the least-recently-used residue beyond [cap]. *)

val save : t -> path:string -> unit
(** Write every rendered residue to [path] as a [pbse-store/1] document
    ({!Pbse_telemetry.Checked_file}: FNV-1a-64 checksum over the
    payload; atomic tmp + rename, previous file rotated to [path].bak),
    in LRU order so a capped reload keeps the most recently useful
    entries. *)

val load : t -> path:string -> (int, string) result
(** Reload residues saved by {!save} into the store, returning how many
    were loaded (each also counts into [reloads]). A missing, corrupt or checksum-mismatched
    file, or one whose payload has no [entries] list, is an [Error] and
    leaves the store unchanged. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val reloads : t -> int
(** Residues reloaded from store files over this store's lifetime. *)
