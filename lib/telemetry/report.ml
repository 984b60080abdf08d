type phase_row = {
  ordinal : int;
  pid : int;
  trap : bool;
  seeded : int;
  turns : int;
  slices : int;
  new_cover : int;
  dwell : int;
  quarantined : int;
  subsumed : int; (* states pruned by the subsumption cache during this phase *)
}

type seed_row = {
  ordinal : int;
  bytes : int;
  turns : int;
  granted : int;
  dwell : int;
  new_blocks : int;
  bugs : int;
  faults : int;
  quarantined : int;
  strikes : int;
  timeouts : int;
}

type t = {
  meta : (string * string) list;
  metrics : (string * int) list;
  phases : phase_row list;
  seeds : seed_row list;
  histograms : Telemetry.histogram_snapshot list;
}

let schema = "pbse-report/1"

(* --- serialisation -------------------------------------------------------- *)

let phase_to_json (p : phase_row) =
  Json.Obj
    [
      ("ordinal", Json.Int p.ordinal);
      ("pid", Json.Int p.pid);
      ("trap", Json.Bool p.trap);
      ("seeded", Json.Int p.seeded);
      ("turns", Json.Int p.turns);
      ("slices", Json.Int p.slices);
      ("new_cover", Json.Int p.new_cover);
      ("dwell", Json.Int p.dwell);
      ("quarantined", Json.Int p.quarantined);
      ("subsumed", Json.Int p.subsumed);
    ]

let seed_to_json (s : seed_row) =
  Json.Obj
    [
      ("ordinal", Json.Int s.ordinal);
      ("bytes", Json.Int s.bytes);
      ("turns", Json.Int s.turns);
      ("granted", Json.Int s.granted);
      ("dwell", Json.Int s.dwell);
      ("new_blocks", Json.Int s.new_blocks);
      ("bugs", Json.Int s.bugs);
      ("faults", Json.Int s.faults);
      ("quarantined", Json.Int s.quarantined);
      ("strikes", Json.Int s.strikes);
      ("timeouts", Json.Int s.timeouts);
    ]

let histogram_to_json (h : Telemetry.histogram_snapshot) =
  ( h.Telemetry.hs_name,
    Json.Obj
      [
        ("count", Json.Int h.Telemetry.hs_count);
        ("sum", Json.Int h.Telemetry.hs_sum);
        ("min", Json.Int h.Telemetry.hs_min);
        ("max", Json.Int h.Telemetry.hs_max);
        ( "buckets",
          Json.List
            (List.map
               (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
               h.Telemetry.hs_buckets) );
      ] )

let to_json t =
  (* the per-seed section only appears on aggregate pool reports, so
     single-run documents are unchanged by the pool extension *)
  let seeds =
    match t.seeds with
    | [] -> []
    | rows -> [ ("seeds", Json.List (List.map seed_to_json rows)) ]
  in
  Json.to_string_pretty
    (Json.Obj
       ([
          ("schema", Json.Str schema);
          ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.meta));
          ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.metrics));
          ("phases", Json.List (List.map phase_to_json t.phases));
        ]
       @ seeds
       @ [ ("histograms", Json.Obj (List.map histogram_to_json t.histograms)) ]))

(* --- parsing -------------------------------------------------------------- *)

let get_int field json =
  match Option.bind (Json.member field json) Json.to_int with Some i -> i | None -> 0

let phase_of_json json =
  {
    ordinal = get_int "ordinal" json;
    pid = get_int "pid" json;
    trap =
      (match Option.bind (Json.member "trap" json) Json.to_bool with
       | Some b -> b
       | None -> false);
    seeded = get_int "seeded" json;
    turns = get_int "turns" json;
    slices = get_int "slices" json;
    new_cover = get_int "new_cover" json;
    dwell = get_int "dwell" json;
    quarantined = get_int "quarantined" json;
    (* absent in pre-pathcond documents: [get_int] defaults to 0 *)
    subsumed = get_int "subsumed" json;
  }

let seed_of_json json =
  {
    ordinal = get_int "ordinal" json;
    bytes = get_int "bytes" json;
    turns = get_int "turns" json;
    granted = get_int "granted" json;
    dwell = get_int "dwell" json;
    new_blocks = get_int "new_blocks" json;
    bugs = get_int "bugs" json;
    faults = get_int "faults" json;
    quarantined = get_int "quarantined" json;
    strikes = get_int "strikes" json;
    timeouts = get_int "timeouts" json;
  }

let histogram_of_json name json =
  {
    Telemetry.hs_name = name;
    hs_count = get_int "count" json;
    hs_sum = get_int "sum" json;
    hs_min = get_int "min" json;
    hs_max = get_int "max" json;
    hs_buckets =
      (match Option.bind (Json.member "buckets" json) Json.to_list with
       | None -> []
       | Some items ->
         List.filter_map
           (function
             | Json.List [ Json.Int i; Json.Int c ] -> Some (i, c)
             | _ -> None)
           items);
  }

let of_json text =
  match Json.parse text with
  | Error e -> Error e
  | Ok json -> (
    match Option.bind (Json.member "schema" json) Json.to_str with
    | Some s when s = schema ->
      let assoc field =
        match Json.member field json with Some (Json.Obj fields) -> fields | _ -> []
      in
      let meta =
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
          (assoc "meta")
      in
      let metrics =
        List.filter_map
          (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.to_int v))
          (assoc "metrics")
      in
      let phases =
        match Option.bind (Json.member "phases" json) Json.to_list with
        | None -> []
        | Some items -> List.map phase_of_json items
      in
      let seeds =
        match Option.bind (Json.member "seeds" json) Json.to_list with
        | None -> []
        | Some items -> List.map seed_of_json items
      in
      let histograms = List.map (fun (k, v) -> histogram_of_json k v) (assoc "histograms") in
      Ok { meta; metrics; phases; seeds; histograms }
    | Some s -> Error (Printf.sprintf "unsupported report schema %S (want %S)" s schema)
    | None -> Error "missing \"schema\" field")

(* --- diff ----------------------------------------------------------------- *)

let metric t name = match List.assoc_opt name t.metrics with Some v -> v | None -> 0

let diff a b =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "report diff (A -> B)";
  (* metadata changes *)
  List.iter
    (fun (k, va) ->
      match List.assoc_opt k b.meta with
      | Some vb when vb <> va -> line "  [meta] %s: %s -> %s" k va vb
      | Some _ -> ()
      | None -> line "  [meta] %s: %s -> (absent)" k va)
    a.meta;
  List.iter
    (fun (k, vb) ->
      if not (List.mem_assoc k a.meta) then line "  [meta] %s: (absent) -> %s" k vb)
    b.meta;
  (* metric deltas over the key union, A's order first *)
  let keys =
    List.map fst a.metrics
    @ List.filter (fun k -> not (List.mem_assoc k a.metrics)) (List.map fst b.metrics)
  in
  let compared = List.length keys in
  let changed = ref 0 in
  List.iter
    (fun k ->
      let va = metric a k and vb = metric b k in
      if va <> vb then begin
        incr changed;
        let delta = vb - va in
        let pct = if va = 0 then 0 else 100 * delta / abs va in
        line "  %-28s %10d -> %-10d (%+d, %+d%%)" k va vb delta pct
      end)
    keys;
  (* phase movement *)
  let traps l = List.length (List.filter (fun (p : phase_row) -> p.trap) l) in
  let dwell l = List.fold_left (fun acc (p : phase_row) -> acc + p.dwell) 0 l in
  let cover l = List.fold_left (fun acc (p : phase_row) -> acc + p.new_cover) 0 l in
  if a.phases <> [] || b.phases <> [] then
    line "  phases: %d -> %d (traps %d -> %d, dwell %d -> %d, new-cover slices %d -> %d)"
      (List.length a.phases) (List.length b.phases) (traps a.phases) (traps b.phases)
      (dwell a.phases) (dwell b.phases) (cover a.phases) (cover b.phases);
  (* seed-pool movement (aggregate pool reports only) *)
  let seed_sum f l = List.fold_left (fun acc s -> acc + f s) 0 l in
  if a.seeds <> [] || b.seeds <> [] then
    line "  seeds: %d -> %d (turns %d -> %d, dwell %d -> %d, new blocks %d -> %d, bugs %d -> %d)"
      (List.length a.seeds) (List.length b.seeds)
      (seed_sum (fun s -> s.turns) a.seeds)
      (seed_sum (fun s -> s.turns) b.seeds)
      (seed_sum (fun s -> s.dwell) a.seeds)
      (seed_sum (fun s -> s.dwell) b.seeds)
      (seed_sum (fun s -> s.new_blocks) a.seeds)
      (seed_sum (fun s -> s.new_blocks) b.seeds)
      (seed_sum (fun s -> s.bugs) a.seeds)
      (seed_sum (fun s -> s.bugs) b.seeds);
  if !changed = 0 then line "  identical metrics (%d compared)" compared
  else line "  %d of %d metrics changed" !changed compared;
  Buffer.contents buf

(* --- regression gates ------------------------------------------------------ *)

type gate = {
  gate_metric : string;
  gate_pct : int; (* +N: fail if B grows more than N%; -N: fail if B drops more *)
}

let parse_gates spec =
  let parse_one clause =
    let fail () =
      Error
        (Printf.sprintf "bad gate %S (want METRIC:+N%% or METRIC:-N%%)" clause)
    in
    match String.index_opt clause ':' with
    | None -> fail ()
    | Some i ->
      let name = String.sub clause 0 i in
      let v = String.sub clause (i + 1) (String.length clause - i - 1) in
      let v =
        let n = String.length v in
        if n > 0 && v.[n - 1] = '%' then String.sub v 0 (n - 1) else v
      in
      (match int_of_string_opt v with
       | Some pct when name <> "" && pct <> 0 -> Ok { gate_metric = name; gate_pct = pct }
       | Some _ | None -> fail ())
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
      match parse_one c with Ok g -> collect (g :: acc) rest | Error e -> Error e)
  in
  collect []
    (List.filter (fun s -> s <> "") (String.split_on_char ',' (String.trim spec)))

let check_gates gates a b =
  (* integer cross-multiplication, no float drift: growth gate +N fails
     when 100*(vb-va) > N*|va|, drop gate -N when 100*(vb-va) < -N*|va| *)
  List.filter_map
    (fun g ->
      let va = metric a g.gate_metric and vb = metric b g.gate_metric in
      let delta100 = 100 * (vb - va) in
      let threshold = g.gate_pct * abs va in
      let violated =
        if g.gate_pct > 0 then delta100 > threshold else delta100 < threshold
      in
      if violated then
        Some
          (Printf.sprintf "%s: %d -> %d exceeds %+d%% threshold" g.gate_metric va vb
             g.gate_pct)
      else None)
    gates
