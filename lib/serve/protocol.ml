module Json = Pbse_telemetry.Json

(* pbse-serve/2 wire protocol (docs/serve.md): every v2 message is one
   JSON object on one line. Requests carry a typed envelope — protocol
   version, optional request id and client identity, a progress switch
   and the campaign parameters under "params" — and are parsed strictly:
   unknown fields, duplicated fields and mistyped values are rejected
   with a structured error code, so a v3 client can't be silently
   half-understood. A line without a "pbse" member is a pbse-serve/1
   one-liner; that dialect is retired and answered with
   unsupported-version like any other version. Responses are framed
   events; the report frame announces a byte count and is followed by
   exactly that many raw bytes of pbse-report/1 JSON — raw, never
   embedded in the frame, so the payload stays byte-identical to what
   the CLI writes. *)

let version = 2
let max_line = 65_536
let default_deadline = 120_000 (* one paper-hour of virtual time *)

type error_code =
  | Bad_json
  | Bad_request
  | Unsupported_version
  | Unknown_target
  | Unknown_scheduler
  | Over_capacity
  | Oversized_request
  | Internal

let error_label = function
  | Bad_json -> "bad-json"
  | Bad_request -> "bad-request"
  | Unsupported_version -> "unsupported-version"
  | Unknown_target -> "unknown-target"
  | Unknown_scheduler -> "unknown-scheduler"
  | Over_capacity -> "over-capacity"
  | Oversized_request -> "oversized-request"
  | Internal -> "internal"

let error_code_of_label = function
  | "bad-json" -> Some Bad_json
  | "bad-request" -> Some Bad_request
  | "unsupported-version" -> Some Unsupported_version
  | "unknown-target" -> Some Unknown_target
  | "unknown-scheduler" -> Some Unknown_scheduler
  | "over-capacity" -> Some Over_capacity
  | "oversized-request" -> Some Oversized_request
  | "internal" -> Some Internal
  | _ -> None

type request = {
  rq_id : string option;
  rq_client : string option; (* admission identity; anonymous if absent *)
  rq_progress : bool; (* stream progress frames at round barriers *)
  rq_target : string;
  rq_deadline : int;
  rq_pool_scheduler : string;
  rq_scheduler : string option; (* phase-scheduling policy override *)
  rq_jobs : int option; (* per-request width, clamped to the pool's *)
  rq_lease : int;
  rq_share : bool;
      (* seedState sharing was removed: the server answers true with
         bad-request. The field stays because the benchmark harness
         builds this record with [rq_share = false]. *)
}

(* --- parsing ---------------------------------------------------------------

   The Json parser keeps an object's fields as the literal assoc list,
   duplicates included — strictness is a plain walk over that list. *)

let fields_of = function Json.Obj fields -> Some fields | _ -> None

let duplicate_key fields =
  let rec scan seen = function
    | [] -> None
    | (k, _) :: rest -> if List.mem k seen then Some k else scan (k :: seen) rest
  in
  scan [] fields

let unknown_key ~allowed fields =
  List.find_opt (fun (k, _) -> not (List.mem k allowed)) fields
  |> Option.map fst

let strict_shape ~what ~allowed fields =
  match duplicate_key fields with
  | Some k -> Error (Bad_request, Printf.sprintf "duplicate %s field %S" what k)
  | None -> (
    match unknown_key ~allowed fields with
    | Some k -> Error (Bad_request, Printf.sprintf "unknown %s field %S" what k)
    | None -> Ok ())

let typed ~what key conv = function
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None ->
      Error (Bad_request, Printf.sprintf "%s field %S has the wrong type" what key))

let ( let* ) = Result.bind

let envelope_fields = [ "pbse"; "id"; "client"; "progress"; "params" ]

let params_fields =
  [ "target"; "deadline"; "pool_scheduler"; "scheduler"; "jobs"; "lease"; "share" ]

let parse_params ~what fields =
  let* () = strict_shape ~what ~allowed:params_fields fields in
  let get k = List.assoc_opt k fields in
  let* target =
    match get "target" with
    | None -> Error (Bad_request, Printf.sprintf "%s needs a \"target\" field" what)
    | Some v -> (
      match Json.to_str v with
      | Some t -> Ok t
      | None -> Error (Bad_request, what ^ " field \"target\" has the wrong type"))
  in
  let* deadline = typed ~what "deadline" Json.to_int (get "deadline") in
  let* pool_scheduler =
    typed ~what "pool_scheduler" Json.to_str (get "pool_scheduler")
  in
  let* scheduler = typed ~what "scheduler" Json.to_str (get "scheduler") in
  let* jobs = typed ~what "jobs" Json.to_int (get "jobs") in
  let* lease = typed ~what "lease" Json.to_int (get "lease") in
  let* share = typed ~what "share" Json.to_bool (get "share") in
  Ok
    ( target,
      Option.value deadline ~default:default_deadline,
      Option.value pool_scheduler ~default:"",
      scheduler,
      jobs,
      max 1 (Option.value lease ~default:1),
      Option.value share ~default:false )

let parse_v2 fields =
  let* () = strict_shape ~what:"envelope" ~allowed:envelope_fields fields in
  let get k = List.assoc_opt k fields in
  let* id = typed ~what:"envelope" "id" Json.to_str (get "id") in
  let* client = typed ~what:"envelope" "client" Json.to_str (get "client") in
  let* progress = typed ~what:"envelope" "progress" Json.to_bool (get "progress") in
  let* params =
    match get "params" with
    | None -> Error (Bad_request, "envelope needs a \"params\" field")
    | Some v -> (
      match fields_of v with
      | Some fields -> Ok fields
      | None -> Error (Bad_request, "envelope field \"params\" must be an object"))
  in
  let* target, deadline, pool_scheduler, scheduler, jobs, lease, share =
    parse_params ~what:"params" params
  in
  Ok
    {
      rq_id = id;
      rq_client = client;
      rq_progress = Option.value progress ~default:false;
      rq_target = target;
      rq_deadline = deadline;
      rq_pool_scheduler = pool_scheduler;
      rq_scheduler = scheduler;
      rq_jobs = jobs;
      rq_lease = lease;
      rq_share = share;
    }

let parse_request line =
  match Json.parse line with
  | Error e -> Error (Bad_json, "bad request JSON: " ^ e)
  | Ok json -> (
    match fields_of json with
    | None -> Error (Bad_request, "request must be a JSON object")
    | Some fields -> (
      let unsupported what =
        Error
          ( Unsupported_version,
            Printf.sprintf "%s not supported (supported: %d)" what version )
      in
      match List.assoc_opt "pbse" fields with
      | None -> unsupported "pbse-serve/1 (a request without \"pbse\")"
      | Some v -> (
        match Json.to_int v with
        | Some n when n = version -> parse_v2 fields
        | Some n -> unsupported (Printf.sprintf "protocol version %d" n)
        | None -> Error (Bad_request, "envelope field \"pbse\" must be an integer"))))

(* --- rendering -------------------------------------------------------------- *)

let opt_str = function Some s -> Json.Str s | None -> Json.Null

let params_json r =
  Json.Obj
    (List.concat
       [
         [ ("target", Json.Str r.rq_target); ("deadline", Json.Int r.rq_deadline) ];
         (if r.rq_pool_scheduler = "" then []
          else [ ("pool_scheduler", Json.Str r.rq_pool_scheduler) ]);
         (match r.rq_scheduler with
          | Some s -> [ ("scheduler", Json.Str s) ]
          | None -> []);
         (match r.rq_jobs with Some j -> [ ("jobs", Json.Int j) ] | None -> []);
         [ ("lease", Json.Int r.rq_lease) ];
         (if r.rq_share then [ ("share", Json.Bool true) ] else []);
       ])

let render_request r =
  Json.to_string
    (Json.Obj
       (List.concat
          [
            [ ("pbse", Json.Int version) ];
            (match r.rq_id with Some id -> [ ("id", Json.Str id) ] | None -> []);
            (match r.rq_client with
             | Some c -> [ ("client", Json.Str c) ]
             | None -> []);
            (if r.rq_progress then [ ("progress", Json.Bool true) ] else []);
            [ ("params", params_json r) ];
          ]))

(* --- response frames -------------------------------------------------------- *)

type frame =
  | Report of { id : string option; bytes : int }
  | Progress of { id : string option; round : int }
  | Error_frame of {
      id : string option;
      code : error_code;
      message : string;
      retry_after : int option; (* whole seconds; over-capacity only *)
    }

let frame_base ~id event =
  ("pbse", Json.Int version) :: ("id", opt_str id) :: [ ("event", Json.Str event) ]

let render_frame frame =
  let json =
    match frame with
    | Report { id; bytes } ->
      Json.Obj (frame_base ~id "report" @ [ ("bytes", Json.Int bytes) ])
    | Progress { id; round } ->
      Json.Obj (frame_base ~id "progress" @ [ ("round", Json.Int round) ])
    | Error_frame { id; code; message; retry_after } ->
      Json.Obj
        (frame_base ~id "error"
        @ [
            ("code", Json.Str (error_label code)); ("message", Json.Str message);
          ]
        @
        match retry_after with
        | Some s -> [ ("retry_after", Json.Int s) ]
        | None -> [])
  in
  Json.to_string json ^ "\n"

let parse_frame line =
  match Json.parse line with
  | Error e -> Error ("bad response frame: " ^ e)
  | Ok json -> (
    let str k = Option.bind (Json.member k json) Json.to_str in
    let int k = Option.bind (Json.member k json) Json.to_int in
    match int "pbse" with
    | Some v when v <> version ->
      Error (Printf.sprintf "response frame for protocol version %d" v)
    | None -> Error "response frame without a \"pbse\" member"
    | Some _ -> (
      let id = str "id" in
      match str "event" with
      | Some "report" -> (
        match int "bytes" with
        | Some bytes when bytes >= 0 -> Ok (Report { id; bytes })
        | _ -> Error "report frame needs a non-negative \"bytes\" field")
      | Some "progress" ->
        Ok (Progress { id; round = Option.value (int "round") ~default:0 })
      | Some "error" ->
        let code =
          Option.bind (str "code") error_code_of_label
          |> Option.value ~default:Internal
        in
        Ok
          (Error_frame
             {
               id;
               code;
               message = Option.value (str "message") ~default:"";
               retry_after = int "retry_after";
             })
      | Some e -> Error (Printf.sprintf "unknown response event %S" e)
      | None -> Error "response frame without an \"event\" member"))
