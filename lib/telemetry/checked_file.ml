type error =
  | Corrupt of string
  | Version_mismatch of string

(* FNV-1a over the compact payload rendering. 64-bit arithmetic is done
   in Int64 (the native int is 63-bit), rendered as 16 hex digits. *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  Printf.sprintf "fnv1a64:%016Lx" !h

let render ~schema payload =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("checksum", Json.Str (fnv1a64 (Json.to_string payload)));
         ("payload", payload);
       ])

let parse ~schema text =
  match Json.parse text with
  | Error e -> Error (Corrupt e)
  | Ok json -> (
    match Option.bind (Json.member "schema" json) Json.to_str with
    | None -> Error (Corrupt "missing \"schema\" field")
    | Some s when s <> schema ->
      Error (Version_mismatch (Printf.sprintf "schema %S (want %S)" s schema))
    | Some _ -> (
      match
        ( Option.bind (Json.member "checksum" json) Json.to_str,
          Json.member "payload" json )
      with
      | None, _ -> Error (Corrupt "missing \"checksum\" field")
      | _, None -> Error (Corrupt "missing \"payload\" field")
      | Some recorded, Some payload ->
        let actual = fnv1a64 (Json.to_string payload) in
        if recorded <> actual then
          Error
            (Corrupt
               (Printf.sprintf "checksum mismatch (recorded %s, computed %s)"
                  recorded actual))
        else Ok payload))

let write ~path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc data;
      output_char oc '\n');
  if Sys.file_exists path then begin
    let bak = path ^ ".bak" in
    if Sys.file_exists bak then Sys.remove bak;
    Sys.rename path bak
  end;
  Sys.rename tmp path

let read ~path =
  match
    if Sys.file_exists path && Sys.is_directory path then
      raise (Sys_error "is a directory");
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e ->
    (* open errors name the file, the others do not *)
    Error (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)
  | text -> Ok text
