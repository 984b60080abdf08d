module Pool_scheduler = Pbse_campaign.Pool_scheduler
module Domain_pool = Pbse_campaign.Domain_pool
module Telemetry = Pbse_telemetry.Telemetry
module Report = Pbse_telemetry.Report
module Session = Pbse_session.Session
module Session_store = Pbse_session.Session_store
module Protocol = Pbse_serve.Protocol
module Transport = Pbse_serve.Transport
module Admission = Pbse_serve.Admission

type stats = {
  sv_clients : int;
  sv_requests : int;
  sv_errors : int;
  sv_rejections : int;
  sv_store_hits : int;
  sv_store_misses : int;
  sv_store_evictions : int;
  sv_store_reloads : int;
}

(* --- fair-share round arbiter ----------------------------------------------

   One shared domain pool, many concurrent campaigns: each campaign
   wraps every round (dispatch through merges) in [wrap], which grants
   pool occupancy in strict ticket order. Campaigns therefore interleave
   at round granularity — a long campaign cannot starve a short one for
   more than one round — while the barriers inside a round stay
   untouched, keeping per-round determinism. Admission control sits in
   front of this arbiter: the arbiter shares fairly among admitted
   campaigns, admission decides who gets to queue at all. *)

type arbiter = {
  arb_mutex : Mutex.t;
  arb_cond : Condition.t;
  mutable arb_next : int; (* next ticket to hand out *)
  mutable arb_serving : int; (* ticket currently allowed to run *)
}

let arbiter_create () =
  {
    arb_mutex = Mutex.create ();
    arb_cond = Condition.create ();
    arb_next = 0;
    arb_serving = 0;
  }

let arbiter_wrap arb f =
  let ticket =
    Mutex.protect arb.arb_mutex (fun () ->
        let t = arb.arb_next in
        arb.arb_next <- t + 1;
        t)
  in
  Mutex.lock arb.arb_mutex;
  while arb.arb_serving <> ticket do
    Condition.wait arb.arb_cond arb.arb_mutex
  done;
  Mutex.unlock arb.arb_mutex;
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect arb.arb_mutex (fun () ->
          arb.arb_serving <- arb.arb_serving + 1;
          Condition.broadcast arb.arb_cond))
    f

(* --- campaign execution ----------------------------------------------------

   The CLI's exact `run --pool --report` recipe, against the server's
   shared pool: default config (plus the request's phase scheduler), a
   fresh runtime per request over a private telemetry-enabled registry —
   concurrent requests share no registry — and the same report metadata
   the CLI writes. *)

let config_of_request (req : Protocol.request) =
  Session.default_config
  |> Session.with_search (fun s ->
         {
           s with
           Session.scheduler =
             Option.value req.Protocol.rq_scheduler ~default:s.Session.scheduler;
         })

let pool_scheduler_of (req : Protocol.request) =
  if req.Protocol.rq_pool_scheduler = "" then Pool_scheduler.default
  else req.Protocol.rq_pool_scheduler

let validate (req : Protocol.request) =
  let sched = pool_scheduler_of req in
  if req.Protocol.rq_share then
    Error
      ( Protocol.Bad_request,
        "\"share\": true is not supported: seedState sharing was removed" )
  else if not (List.mem sched Pool_scheduler.names) then
    Error
      ( Protocol.Unknown_scheduler,
        Printf.sprintf "unknown pool scheduler %s (available: %s)" sched
          (String.concat ", " Pool_scheduler.names) )
  else
    match req.Protocol.rq_scheduler with
    | Some s when not (List.mem s Pbse_sched.Scheduler.names) ->
      Error
        ( Protocol.Unknown_scheduler,
          Printf.sprintf "unknown scheduler %s (available: %s)" s
            (String.concat ", " Pbse_sched.Scheduler.names) )
    | _ -> Ok ()

let run_request ~pool ~arb ~jobs ?on_round (req : Protocol.request) prog
    seeds =
  let config = config_of_request req in
  let runtime =
    Session.runtime_of_config ~registry:(Telemetry.Registry.create ~enabled:true ()) config
  in
  let round_wrap f =
    arbiter_wrap arb f;
    match on_round with Some g -> g () | None -> ()
  in
  match
    Driver.run_pool ~config ~scheduler:(pool_scheduler_of req) ~runtime
      ~jobs:(Option.value req.Protocol.rq_jobs ~default:jobs)
      ~lease:req.Protocol.rq_lease ~pool ~round_wrap prog ~seeds
      ~deadline:req.Protocol.rq_deadline
  with
  | report ->
    let meta =
      [
        ("target", req.Protocol.rq_target);
        ("seed", "pool");
        ("deadline", string_of_int req.Protocol.rq_deadline);
      ]
    in
    Ok (Report.to_json (Driver.pool_run_report ~meta report))
  | exception e -> Error (Protocol.Internal, Printexc.to_string e)

(* --- connection handling ---------------------------------------------------- *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

type server = {
  srv_pool : Domain_pool.t;
  srv_store : Session_store.t;
  srv_arb : arbiter;
  srv_admission : Admission.t;
  srv_jobs : int;
  srv_store_file : string option;
  srv_save_mutex : Mutex.t; (* one store-file writer at a time *)
  srv_lookup : string -> (Pbse_ir.Types.program * bytes list) option;
  srv_clients : int Atomic.t;
  srv_requests : int Atomic.t;
  srv_errors : int Atomic.t;
}

let save_store srv =
  match srv.srv_store_file with
  | None -> ()
  | Some path -> (
    Mutex.protect srv.srv_save_mutex (fun () ->
        try Session_store.save srv.srv_store ~path
        with Sys_error _ -> () (* an unwritable store file degrades to none *)))

(* One request per connection. Everything the client can get wrong is
   answered with a v2 error frame carrying a structured code. A client
   that disconnects mid-campaign only marks its connection dead — the
   campaign runs to completion so the shared pool, arbiter and store
   stay healthy. *)
let handle srv fd =
  Atomic.incr srv.srv_clients;
  let rd = Transport.reader fd in
  let respond_error ~id code message retry_after =
    Atomic.incr srv.srv_errors;
    write_all fd
      (Protocol.render_frame (Protocol.Error_frame { id; code; message; retry_after }))
  in
  let respond_body ~id body =
    Atomic.incr srv.srv_requests;
    write_all fd
      (Protocol.render_frame (Protocol.Report { id; bytes = String.length body }));
    write_all fd body
  in
  let serve_request (req : Protocol.request) =
    let id = req.Protocol.rq_id in
    let fail (code, message) = respond_error ~id code message None in
    match
      Admission.admit srv.srv_admission
        ~client:(Option.value req.Protocol.rq_client ~default:"")
    with
    | Admission.Reject { retry_after } ->
      respond_error ~id Protocol.Over_capacity "over capacity" (Some retry_after)
    | Admission.Admit ticket ->
      Fun.protect ~finally:(fun () -> Admission.release ticket) @@ fun () -> (
      match validate req with
      | Error e -> fail e
      | Ok () -> (
        match srv.srv_lookup req.Protocol.rq_target with
        | None ->
          fail
            ( Protocol.Unknown_target,
              "unknown target " ^ req.Protocol.rq_target )
        | Some (prog, seeds) -> (
          let fingerprint =
            Driver.campaign_fingerprint ~config:(config_of_request req)
              ~scheduler:(pool_scheduler_of req) ~lease:req.Protocol.rq_lease
              ~target:req.Protocol.rq_target ~seeds
              ~deadline:req.Protocol.rq_deadline ()
          in
          match Session_store.find_residue srv.srv_store ~fingerprint with
          | Some body -> respond_body ~id body
          | None ->
            (* progress frames ride the handler thread: [round_wrap]
               brackets each round on this thread, so frame writes never
               race the final report. A failed write (client gone) stops
               the frames, never the campaign. *)
            let dead = ref false in
            let round = ref 0 in
            let on_round () =
              if (not !dead) && req.Protocol.rq_progress then begin
                incr round;
                try
                  write_all fd
                    (Protocol.render_frame
                       (Protocol.Progress { id; round = !round }))
                with Unix.Unix_error _ | Sys_error _ -> dead := true
              end
            in
            (match
               run_request ~pool:srv.srv_pool ~arb:srv.srv_arb ~jobs:srv.srv_jobs
                 ~on_round req prog seeds
             with
             | Error e -> fail e
             | Ok body ->
               Session_store.put_residue srv.srv_store ~fingerprint body;
               save_store srv;
               if not !dead then respond_body ~id body))))
  in
  (try
     (match Transport.read_line rd with
      | Error Transport.Eof | Error (Transport.Fail _) ->
        () (* client connected and hung up (or the read timed out) *)
      | Error Transport.Overflow ->
        (* consume the rest of the line first: closing with unread bytes
           pending resets the peer and can discard the error frame *)
        Transport.drain_line rd;
        respond_error ~id:None Protocol.Oversized_request
          (Printf.sprintf "request line exceeds %d bytes" Protocol.max_line)
          None
      | Ok line -> (
        match Protocol.parse_request line with
        | Error (code, message) -> respond_error ~id:None code message None
        | Ok req -> serve_request req))
   with Sys_error _ | Unix.Unix_error _ -> ());
  try Unix.close fd with Sys_error _ | Unix.Unix_error _ -> ()

(* --- server ------------------------------------------------------------------ *)

let serve ~endpoints ?(jobs = 2) ?store_cap ?store_file ?(max_inflight = 0)
    ?(quota_burst = 0) ?(quota_refill = 0.0) ?control ~lookup () =
  if endpoints = [] then invalid_arg "Serve.serve: no endpoints";
  (* progress frames are written to clients that may be gone; a SIGPIPE
     must surface as EPIPE on the write, not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let control =
    match control with Some c -> c | None -> Transport.control_create ()
  in
  let listeners =
    List.fold_left
      (fun acc ep ->
        match Transport.listen ep with
        | fd -> (ep, fd) :: acc
        | exception e ->
          List.iter (fun (ep, fd) -> Transport.close_listener ep fd) acc;
          raise e)
      [] endpoints
    |> List.rev
  in
  let store = Session_store.create ?cap:store_cap () in
  (match store_file with
   | Some path when Sys.file_exists path ->
     (* a corrupt or unreadable store file degrades to a cold boot *)
     ignore (Session_store.load store ~path)
   | _ -> ());
  let srv =
    {
      srv_pool = Domain_pool.create ~jobs;
      srv_store = store;
      srv_arb = arbiter_create ();
      srv_admission =
        Admission.create ~max_inflight ~quota_burst ~quota_refill ();
      srv_jobs = jobs;
      srv_store_file = store_file;
      srv_save_mutex = Mutex.create ();
      srv_lookup = lookup;
      srv_clients = Atomic.make 0;
      srv_requests = Atomic.make 0;
      srv_errors = Atomic.make 0;
    }
  in
  (* in-flight handler threads, counted so shutdown can drain them *)
  let inflight_mutex = Mutex.create () in
  let drained = Condition.create () in
  let inflight = ref 0 in
  let finished () =
    Mutex.protect inflight_mutex (fun () ->
        decr inflight;
        if !inflight = 0 then Condition.broadcast drained)
  in
  let dispatch fd =
    Mutex.protect inflight_mutex (fun () -> incr inflight);
    let run fd = Fun.protect ~finally:finished (fun () -> handle srv fd) in
    match Thread.create run fd with
    | _ -> ()
    | exception e ->
      finished ();
      raise e
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (ep, fd) -> Transport.close_listener ep fd) listeners;
      (* drain in-flight requests before releasing their domain pool *)
      Mutex.protect inflight_mutex (fun () ->
          while !inflight > 0 do
            Condition.wait drained inflight_mutex
          done);
      save_store srv;
      Domain_pool.shutdown srv.srv_pool)
    (fun () ->
      Transport.accept_loop control (List.map snd listeners) dispatch);
  {
    sv_clients = Atomic.get srv.srv_clients;
    sv_requests = Atomic.get srv.srv_requests;
    sv_errors = Atomic.get srv.srv_errors;
    sv_rejections = Admission.rejections srv.srv_admission;
    sv_store_hits = Session_store.hits store;
    sv_store_misses = Session_store.misses store;
    sv_store_evictions = Session_store.evictions store;
    sv_store_reloads = Session_store.reloads store;
  }

(* --- client ---------------------------------------------------------------- *)

type error_info = {
  err_code : string;
  err_message : string;
  err_retry_after : int option;
}

let transport_error message = { err_code = "transport"; err_message = message; err_retry_after = None }

let read_failure = function
  | Transport.Eof -> transport_error "server closed the connection"
  | Transport.Overflow -> transport_error "oversized response frame"
  | Transport.Fail e -> transport_error e

(* One exchange: progress frames invoke [on_progress] and keep reading
   until a report or error frame ends the response. *)
let request ?timeout ?on_progress ~connect line =
  let line =
    if String.length line > 0 && line.[String.length line - 1] = '\n' then line
    else line ^ "\n"
  in
  match Transport.connect ?timeout connect with
  | Error e -> Error { err_code = "connect"; err_message = e; err_retry_after = None }
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Sys_error _ | Unix.Unix_error _ -> ())
      (fun () ->
        match write_all fd line with
        | exception Unix.Unix_error (err, _, _) ->
          Error (transport_error (Unix.error_message err))
        | () ->
          let rd = Transport.reader fd in
          let rec next_frame () =
            match Transport.read_line rd with
            | Error e -> Error (read_failure e)
            | Ok header -> (
              match Protocol.parse_frame header with
              | Error e -> Error (transport_error e)
              | Ok (Protocol.Progress { round; _ }) ->
                (match on_progress with Some f -> f round | None -> ());
                next_frame ()
              | Ok (Protocol.Report { bytes; _ }) ->
                Result.map_error read_failure (Transport.read_exact rd bytes)
              | Ok (Protocol.Error_frame { code; message; retry_after; _ }) ->
                Error
                  {
                    err_code = Protocol.error_label code;
                    err_message = message;
                    err_retry_after = retry_after;
                  })
          in
          next_frame ())
