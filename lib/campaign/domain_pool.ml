(* Persistent domain pool with home-queue affinity and work-stealing.

   A pool spawns its worker domains once ([create]) and reuses them for
   every round of a campaign ([run]), so round barriers cost a
   mutex-and-condition handshake instead of a spawn-and-join per round.
   Each run distributes its tasks into per-worker queues by the caller's
   [home] key: a slot that always maps to the same key always executes
   on the same domain (its session arena, prefix contexts and scratch
   state stay hot in that domain's caches), and a worker only *steals*
   from the other queues once its own runs dry. Pinned-vs-stolen counts
   are kept as pool statistics ([pinned], [steals]) so affinity loss is
   diagnosable from a run report.

   Determinism: results land in a slot array indexed by input position
   and are consumed in input order, so which worker ran which task — and
   whether it was pinned or stolen — is invisible to the caller
   (docs/parallelism.md). Exceptions are captured per task and the
   earliest (in input order) re-raised after the round barrier, so a
   failing task can never leak a running domain and the pool stays
   usable.

   Memory publication: the coordinator installs a round's queues and
   task closure under the pool mutex before bumping the epoch, and
   workers acknowledge completion under the same mutex — each round's
   writes (results, session mutations) happen-before the coordinator's
   barrier read. Task indices are claimed from per-queue atomic cursors,
   so a slow task never blocks the rest of its queue. *)

type 'b slot =
  | Pending
  | Done of 'b
  | Failed of exn * Printexc.raw_backtrace

let run_task f tasks results i =
  match f tasks.(i) with
  | v -> results.(i) <- Done v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    results.(i) <- Failed (e, bt)

let collect results =
  Array.to_list
    (Array.map
       (function
         | Done v -> v
         | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
         | Pending -> assert false)
       results)

type t = {
  lock : Mutex.t;
  work : Condition.t; (* a new epoch (or shutdown) is ready *)
  idle : Condition.t; (* a worker finished the current epoch *)
  mutable epoch : int;
  mutable acked : int; (* spawned workers done with the current epoch *)
  mutable active : int; (* workers participating in the current epoch *)
  mutable queues : int array array; (* per-active-worker task indices *)
  mutable cursors : int Atomic.t array;
  mutable run_one : int -> unit; (* current epoch's task runner *)
  mutable pinned : int; (* tasks run by their home worker *)
  mutable steals : int; (* tasks run by a non-home worker *)
  mutable closing : bool;
  width : int; (* worker count including the coordinator *)
  mutable domains : unit Domain.t array; (* the [width - 1] spawned ones *)
}

(* Drain the worker's own queue first (every task there counts as
   pinned), then sweep the other active queues in cyclic order and steal
   what is left. Runs outside the mutex: queues, cursors and [run_one]
   were published by the epoch handshake, and distinct tasks never share
   a result slot. *)
let participate t w =
  if w >= t.active then (0, 0)
  else begin
    let pinned = ref 0 and steals = ref 0 in
    let drain qi counter =
      let q = t.queues.(qi) in
      let cursor = t.cursors.(qi) in
      let n = Array.length q in
      let rec go () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          t.run_one q.(i);
          incr counter;
          go ()
        end
      in
      go ()
    in
    drain w pinned;
    for d = 1 to t.active - 1 do
      drain ((w + d) mod t.active) steals
    done;
    (!pinned, !steals)
  end

let rec worker_loop t w seen_epoch =
  Mutex.lock t.lock;
  while (not t.closing) && t.epoch = seen_epoch do
    Condition.wait t.work t.lock
  done;
  if t.closing then Mutex.unlock t.lock
  else begin
    let epoch = t.epoch in
    Mutex.unlock t.lock;
    let pinned, steals = participate t w in
    Mutex.lock t.lock;
    t.pinned <- t.pinned + pinned;
    t.steals <- t.steals + steals;
    t.acked <- t.acked + 1;
    Condition.broadcast t.idle;
    Mutex.unlock t.lock;
    worker_loop t w epoch
  end

let create ~jobs =
  (* More domains than cores is pure overhead (the minor-GC barrier
     synchronises every running domain), so the width is capped by the
     hardware; [run]'s per-round [jobs] can only narrow it further. *)
  let width = max 1 (min jobs (Domain.recommended_domain_count ())) in
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      epoch = 0;
      acked = 0;
      active = 0;
      queues = [||];
      cursors = [||];
      run_one = ignore;
      pinned = 0;
      steals = 0;
      closing = false;
      width;
      domains = [||];
    }
  in
  if width > 1 then
    t.domains <-
      Array.init (width - 1) (fun k -> Domain.spawn (fun () -> worker_loop t (k + 1) 0));
  t

let pinned t =
  Mutex.lock t.lock;
  let v = t.pinned in
  Mutex.unlock t.lock;
  v

let steals t =
  Mutex.lock t.lock;
  let v = t.steals in
  Mutex.unlock t.lock;
  v

let run t ~jobs ~home f xs =
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  if n = 0 then []
  else begin
    let results = Array.make n Pending in
    let active = max 1 (min (min jobs t.width) n) in
    if active <= 1 then begin
      (* a sequential round: run inline, spawned workers (if any)
         sleep through it — the epoch never advances *)
      for i = 0 to n - 1 do
        run_task f tasks results i
      done;
      Mutex.lock t.lock;
      t.pinned <- t.pinned + n;
      Mutex.unlock t.lock
    end
    else begin
      let buckets = Array.make active [] in
      (* bucket in reverse so each queue ends up in input order *)
      for i = n - 1 downto 0 do
        let h = ((home tasks.(i) mod active) + active) mod active in
        buckets.(h) <- i :: buckets.(h)
      done;
      Mutex.lock t.lock;
      t.queues <- Array.map Array.of_list buckets;
      t.cursors <- Array.init active (fun _ -> Atomic.make 0);
      t.active <- active;
      t.run_one <- (fun i -> run_task f tasks results i);
      t.acked <- 0;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.lock;
      (* the coordinator is worker 0 *)
      let pinned, steals = participate t 0 in
      Mutex.lock t.lock;
      t.pinned <- t.pinned + pinned;
      t.steals <- t.steals + steals;
      while t.acked < Array.length t.domains do
        Condition.wait t.idle t.lock
      done;
      (* drop the round's closures so finished task state can be
         collected between rounds *)
      t.run_one <- ignore;
      t.queues <- [||];
      t.cursors <- [||];
      Mutex.unlock t.lock
    end;
    collect results
  end

let shutdown t =
  Mutex.lock t.lock;
  if t.closing then Mutex.unlock t.lock
  else begin
    t.closing <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end
