module Telemetry = Pbse_telemetry.Telemetry
module Json = Pbse_telemetry.Json
module Checked_file = Pbse_telemetry.Checked_file

(* Rendered residues — the final response bytes of finished campaigns —
   keyed by campaign fingerprint, evicted strictly LRU. Plain strings,
   so they survive save/load across a server restart. All operations
   are mutex-guarded: the serve layer hits one store from many client
   threads. *)

type rendered = {
  r_body : string;
  mutable r_last : int; (* LRU tick of the last find/put *)
}

type t = {
  mutex : Mutex.t;
  residues : (string, rendered) Hashtbl.t;
  cap : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable reloads : int; (* residues reloaded from a store file *)
  ctr_hits : Telemetry.counter;
  ctr_misses : Telemetry.counter;
  ctr_evictions : Telemetry.counter;
  ctr_reloads : Telemetry.counter;
}

let default_cap = 64

let create ?(cap = default_cap) ?registry () =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  {
    mutex = Mutex.create ();
    residues = Hashtbl.create 16;
    cap = max 1 cap;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    reloads = 0;
    ctr_hits = Telemetry.Registry.counter registry "session.store_hits";
    ctr_misses = Telemetry.Registry.counter registry "session.store_misses";
    ctr_evictions = Telemetry.Registry.counter registry "session.store_evictions";
    ctr_reloads = Telemetry.Registry.counter registry "session.store_reloads";
  }

(* O(n) victim scans — the store caps at tens of residues, not
   thousands. *)
let enforce_cap t =
  while Hashtbl.length t.residues > t.cap do
    let victim =
      Hashtbl.fold
        (fun fp r acc ->
          match acc with
          | Some (_, last) when last <= r.r_last -> acc
          | _ -> Some (fp, r.r_last))
        t.residues None
    in
    match victim with
    | None -> ()
    | Some (fp, _) ->
      Hashtbl.remove t.residues fp;
      t.evictions <- t.evictions + 1;
      Telemetry.incr t.ctr_evictions
  done

let find_residue t ~fingerprint =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.residues fingerprint with
      | Some r ->
        t.tick <- t.tick + 1;
        r.r_last <- t.tick;
        t.hits <- t.hits + 1;
        Telemetry.incr t.ctr_hits;
        Some r.r_body
      | None ->
        t.misses <- t.misses + 1;
        Telemetry.incr t.ctr_misses;
        None)

let put_residue_locked t fingerprint body =
  t.tick <- t.tick + 1;
  (match Hashtbl.find_opt t.residues fingerprint with
   | Some r -> r.r_last <- t.tick
   | None -> Hashtbl.replace t.residues fingerprint { r_body = body; r_last = t.tick });
  enforce_cap t

let put_residue t ~fingerprint body =
  Mutex.protect t.mutex (fun () -> put_residue_locked t fingerprint body)

(* --- store files (pbse-store/1) -------------------------------------------- *)

let store_schema = "pbse-store/1"

let residues_snapshot t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold (fun fp r acc -> (fp, r.r_last, r.r_body) :: acc) t.residues [])
  |> List.sort (fun (a, la, _) (b, lb, _) ->
         match Int.compare la lb with 0 -> String.compare a b | c -> c)

let save t ~path =
  let entries =
    List.map
      (fun (fp, _, body) ->
        Json.Obj [ ("fingerprint", Json.Str fp); ("body", Json.Str body) ])
      (residues_snapshot t)
  in
  Checked_file.write ~path
    (Checked_file.render ~schema:store_schema
       (Json.Obj [ ("entries", Json.List entries) ]))

let parse_store text =
  match Checked_file.parse ~schema:store_schema text with
  | Error (Checked_file.Corrupt e | Checked_file.Version_mismatch e) ->
    Error ("store file: " ^ e)
  | Ok payload -> (
    match Option.bind (Json.member "entries" payload) Json.to_list with
    | None -> Error "store file has no \"entries\" list"
    | Some entries ->
      let parsed =
        List.filter_map
          (fun e ->
            match
              ( Option.bind (Json.member "fingerprint" e) Json.to_str,
                Option.bind (Json.member "body" e) Json.to_str )
            with
            | Some fp, Some body -> Some (fp, body)
            | _ -> None)
          entries
      in
      if List.length parsed <> List.length entries then
        Error "store file has a malformed entry"
      else Ok parsed)

let load t ~path =
  match Result.bind (Checked_file.read ~path) parse_store with
  | Error e -> Error e
  | Ok entries ->
    Mutex.protect t.mutex (fun () ->
        List.iter
          (fun (fp, body) ->
            put_residue_locked t fp body;
            t.reloads <- t.reloads + 1;
            Telemetry.incr t.ctr_reloads)
          entries);
    Ok (List.length entries)

let hits t = Mutex.protect t.mutex (fun () -> t.hits)
let misses t = Mutex.protect t.mutex (fun () -> t.misses)
let evictions t = Mutex.protect t.mutex (fun () -> t.evictions)
let reloads t = Mutex.protect t.mutex (fun () -> t.reloads)
let residue_size t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.residues)
