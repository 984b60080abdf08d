type t = {
  name : string;
  package : string;
  source : string;
  seeds : (string * bytes) list;
  buggy_seeds : (string * bytes) list;
  planted_bugs : (string * string) list;
  cves : (string * string) list;
}

let readelf =
  {
    name = Readelf_target.name;
    package = Readelf_target.package;
    source = Readelf_target.source;
    seeds = Readelf_target.seeds ();
    buggy_seeds = [];
    planted_bugs = Readelf_target.planted_bugs;
    cves = [];
  }

let pngtest =
  {
    name = Png_target.name;
    package = Png_target.package;
    source = Png_target.source;
    seeds = Png_target.seeds ();
    buggy_seeds =
      [
        ("buggy-keyword", Png_target.seed_buggy_keyword ());
        ("buggy-month", Png_target.seed_buggy_month ());
      ];
    planted_bugs = Png_target.planted_bugs;
    cves =
      [
        ("time-month-oob-read", "CVE-2015-7981");
        ("keyword-trim-underflow", "CVE-2015-8540");
      ];
  }

let gif2tiff =
  {
    name = Gif_target.name;
    package = Gif_target.package;
    source = Gif_target.source;
    seeds = Gif_target.seeds ();
    buggy_seeds = [ ("buggy-colormap", Gif_target.seed_buggy_colormap ()) ];
    planted_bugs = Gif_target.planted_bugs;
    cves = [];
  }

let tiff2rgba =
  {
    name = Rgba_target.name;
    package = Rgba_target.package;
    source = Rgba_target.source;
    seeds = Rgba_target.seeds ();
    buggy_seeds = [ ("buggy-cielab", Rgba_target.seed_buggy ()) ];
    planted_bugs = Rgba_target.planted_bugs;
    cves = [];
  }

let tiff2bw =
  {
    name = Bw_target.name;
    package = Bw_target.package;
    source = Bw_target.source;
    seeds = Bw_target.seeds ();
    buggy_seeds = [ ("buggy-spp", Bw_target.seed_buggy_spp ()) ];
    planted_bugs = Bw_target.planted_bugs;
    cves = [];
  }

let dwarfdump =
  {
    name = Dwarf_target.name;
    package = Dwarf_target.package;
    source = Dwarf_target.source;
    seeds = Dwarf_target.seeds ();
    buggy_seeds = [];
    planted_bugs = Dwarf_target.planted_bugs;
    cves =
      [
        ("abbrev-code-oob-read", "CVE-2015-8538");
        ("form-string-oob-read", "CVE-2015-8750");
        ("sibling-ref-oob-read", "CVE-2016-2050");
        ("line-file-index-oob-read", "CVE-2016-2091");
        ("null-abbrev-table-deref", "CVE-2014-9482");
      ];
  }

let tcpdump =
  {
    name = Tcpdump_target.name;
    package = Tcpdump_target.package;
    source = Tcpdump_target.source;
    seeds = Tcpdump_target.seeds ();
    buggy_seeds = [];
    planted_bugs = Tcpdump_target.planted_bugs;
    cves = [];
  }

let all = [ readelf; pngtest; gif2tiff; tiff2rgba; tiff2bw; dwarfdump; tcpdump ]

let by_name name = List.find_opt (fun t -> t.name = name) all

let programs : (string, Pbse_ir.Types.program) Hashtbl.t = Hashtbl.create 8

let program t =
  match Hashtbl.find_opt programs t.name with
  | Some p -> p
  | None ->
    let p = Pbse_lang.Frontend.compile t.source in
    Hashtbl.replace programs t.name p;
    p

let seed t label =
  match List.assoc_opt label t.seeds with
  | Some s -> s
  | None -> (
    match List.assoc_opt label t.buggy_seeds with
    | Some s -> s
    | None -> raise Not_found)

let default_seed t = seed t "small"

let smallest_seed t =
  List.hd
    (List.stable_sort
       (fun a b -> Int.compare (Bytes.length a) (Bytes.length b))
       (List.map snd t.seeds))
