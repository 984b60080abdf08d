(** [pbse serve] — a long-running campaign server speaking
    [pbse-serve/2] (docs/serve.md) over Unix-domain and/or TCP
    endpoints.

    One process holds one persistent {!Pbse_campaign.Domain_pool} and
    one {!Pbse_session.Session_store} of rendered responses; each client
    connection carries one campaign request, passes an admission arbiter
    (global in-flight cap plus per-client token-bucket quotas — rejected
    requests get a structured [over-capacity] error with [retry_after] seconds instead
    of silently queueing), runs as a {!Driver.run_pool} campaign
    multiplexed onto the shared pool with fair-share round scheduling,
    and streams back a [pbse-report/1] document byte-identical to what
    [pbse run TARGET --pool --report] writes for the same parameters —
    over every transport. A repeated request (same campaign fingerprint,
    any [jobs]) is answered from the store without running the engine;
    with [store_file], rendered responses also persist across a server
    restart (reloaded on boot, so a deploy keeps the cache warm).

    The wire protocol lives in {!Pbse_serve.Protocol}: requests are
    typed v2 envelopes with structured error codes and optional progress
    frames at round barriers; a line that is not a v2 envelope (the
    retired v1 one-liner included) gets an [unsupported-version] error
    frame. Shutdown is immediate: the accept loop blocks
    on a self-pipe ({!Pbse_serve.Transport.control}), not a poll. *)

type stats = {
  sv_clients : int;  (** connections accepted *)
  sv_requests : int;  (** campaigns served successfully *)
  sv_errors : int;  (** error responses written *)
  sv_rejections : int;  (** admission rejections (subset of errors) *)
  sv_store_hits : int;  (** response-store hits over the server's life *)
  sv_store_misses : int;
  sv_store_evictions : int;
  sv_store_reloads : int;  (** residues reloaded from [store_file] at boot *)
}

val serve :
  endpoints:Pbse_serve.Transport.endpoint list ->
  ?jobs:int ->
  ?store_cap:int ->
  ?store_file:string ->
  ?max_inflight:int ->
  ?quota_burst:int ->
  ?quota_refill:float ->
  ?control:Pbse_serve.Transport.control ->
  lookup:(string -> (Pbse_ir.Types.program * bytes list) option) ->
  unit ->
  stats
(** Bind every endpoint (a Unix socket path replaces any existing file;
    TCP listeners set [SO_REUSEADDR]), accept clients until the
    [control]'s {!Pbse_serve.Transport.request_stop} fires — a signal
    handler calling it wakes the accept loop immediately via the
    self-pipe — then drain in-flight requests, persist the store (with
    [store_file]), release the domain pool, unlink Unix sockets and
    return the lifetime {!stats}.

    [jobs] (default 2) sizes the shared domain pool; [store_cap]
    (default 64) bounds the rendered responses the store keeps (LRU). [store_file] names a [pbse-store/1] file:
    rendered response bodies are reloaded from it at boot (counted in
    [sv_store_reloads]; a corrupt file degrades to a cold boot) and
    checkpointed after every successful request and at shutdown.
    [max_inflight] (0 = unlimited) caps concurrently admitted
    campaigns; [quota_burst]/[quota_refill] configure each client's
    token bucket (see {!Pbse_serve.Admission}). [lookup] resolves a
    request's target name to its program and benign seed pool (the CLI
    passes the target registry).

    Each client is handled on its own thread; every campaign runs under
    a private runtime and telemetry registry, so requests share only
    the domain pool (arbitrated per round), the admission arbiter and
    the mutex-guarded store. A client that disconnects mid-campaign
    stops receiving frames but its campaign completes — the shared pool
    stays healthy. Raises [Invalid_argument] on an empty endpoint
    list. *)

(** {2 Client} *)

type error_info = {
  err_code : string;
      (** a {!Pbse_serve.Protocol.error_code} label, or ["connect"] /
          ["transport"] for client-side failures *)
  err_message : string;
  err_retry_after : int option;  (** seconds; [over-capacity] only *)
}

val request :
  ?timeout:float ->
  ?on_progress:(int -> unit) ->
  connect:Pbse_serve.Transport.endpoint ->
  string ->
  (string, error_info) result
(** One client exchange: send [line] (a newline is appended if missing)
    to the server at [connect], return the report bytes or a structured
    error. [timeout] (seconds) bounds the connect and every read.
    [on_progress] receives each progress frame's round number as it
    arrives. Used by [pbse request], the
    serve tests and the bench drills. *)
