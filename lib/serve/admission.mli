(** Request admission for the campaign server: a global in-flight cap
    and per-client token-bucket quotas, keyed by the client-supplied
    identity from the request envelope. A rejected request gets a
    structured [retry_after] (whole seconds) instead of being silently
    queued behind every admitted campaign. Mutex-guarded; one arbiter
    is shared by all client threads. *)

type t

type ticket
(** Proof of admission; {!release} exactly once when the request
    finishes (releasing twice is a no-op). *)

type decision = Admit of ticket | Reject of { retry_after : int }

val create :
  ?max_inflight:int ->
  ?quota_burst:int ->
  ?quota_refill:float ->
  ?now:(unit -> float) ->
  unit ->
  t
(** [max_inflight] (default 0 = unlimited) caps concurrently admitted
    requests across all clients. [quota_burst] (default 0 = quotas off)
    is each client's bucket capacity — a fresh client may burst that
    many requests — and [quota_refill] the bucket's refill rate in
    tokens per second. [now] (default [Unix.gettimeofday]) is the
    bucket clock, injectable for tests. *)

val admit : t -> client:string -> decision
(** Admit or reject one request for [client] (the anonymous identity
    [""] is one shared bucket). The in-flight cap is checked first and
    rejects with [retry_after = 1] (capacity frees on completion, not
    on a clock); a dry bucket rejects with the seconds until it holds a
    whole token again (at least 1, even when the refill rate is 0). *)

val release : ticket -> unit

val rejections : t -> int
(** Lifetime count of rejected requests. *)
