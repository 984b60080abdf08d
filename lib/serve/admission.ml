(* Admission control in front of the campaign arbiter: a global
   in-flight cap plus a token bucket per client identity. The arbiter
   behind us fair-shares the domain pool among admitted campaigns, so
   without a cap every client is silently queued; admission turns that
   into an explicit, structured "come back in N seconds". The clock is
   injectable so bucket arithmetic is testable without sleeping. *)

type bucket = {
  mutable tokens : float;
  mutable last : float; (* clock at the last refill *)
}

type t = {
  mutex : Mutex.t;
  max_inflight : int; (* 0 = unlimited *)
  burst : int; (* bucket capacity; 0 = quotas off *)
  refill : float; (* tokens per second *)
  now : unit -> float;
  buckets : (string, bucket) Hashtbl.t;
  mutable inflight : int;
  mutable rejections : int;
}

type ticket = { t_owner : t; mutable t_released : bool }

type decision = Admit of ticket | Reject of { retry_after : int }

let create ?(max_inflight = 0) ?(quota_burst = 0) ?(quota_refill = 0.0)
    ?(now = Unix.gettimeofday) () =
  {
    mutex = Mutex.create ();
    max_inflight = max 0 max_inflight;
    burst = max 0 quota_burst;
    refill = max 0.0 quota_refill;
    now;
    buckets = Hashtbl.create 16;
    inflight = 0;
    rejections = 0;
  }

let topped_up t client =
  let clock = t.now () in
  match Hashtbl.find_opt t.buckets client with
  | None ->
    let b = { tokens = float_of_int t.burst; last = clock } in
    Hashtbl.replace t.buckets client b;
    b
  | Some b ->
    let dt = clock -. b.last in
    if dt > 0.0 then begin
      b.tokens <- Float.min (float_of_int t.burst) (b.tokens +. (dt *. t.refill));
      b.last <- clock
    end;
    b

(* Seconds until the bucket holds a whole token again — the structured
   retry_after. A dry bucket with no refill can only say "try in a
   second"; the floor keeps the field a positive integer either way. *)
let seconds_until_token t b =
  if t.refill <= 0.0 then 1
  else max 1 (int_of_float (Float.ceil ((1.0 -. b.tokens) /. t.refill)))

let admit t ~client =
  Mutex.protect t.mutex (fun () ->
      if t.max_inflight > 0 && t.inflight >= t.max_inflight then begin
        t.rejections <- t.rejections + 1;
        (* the cap frees up when a campaign finishes, not on a clock;
           one second is the polite "immediately after someone leaves" *)
        Reject { retry_after = 1 }
      end
      else if t.burst = 0 then begin
        t.inflight <- t.inflight + 1;
        Admit { t_owner = t; t_released = false }
      end
      else begin
        let b = topped_up t client in
        if b.tokens >= 1.0 then begin
          b.tokens <- b.tokens -. 1.0;
          t.inflight <- t.inflight + 1;
          Admit { t_owner = t; t_released = false }
        end
        else begin
          t.rejections <- t.rejections + 1;
          Reject { retry_after = seconds_until_token t b }
        end
      end)

let release ticket =
  let t = ticket.t_owner in
  Mutex.protect t.mutex (fun () ->
      if not ticket.t_released then begin
        ticket.t_released <- true;
        t.inflight <- t.inflight - 1
      end)

let rejections t = Mutex.protect t.mutex (fun () -> t.rejections)
