module Registry = Pbse_targets.Registry
module Concrete = Pbse_exec.Concrete
module Validate = Pbse_ir.Validate

let all_names = List.map (fun t -> t.Registry.name) Registry.all

let test_expected_targets_present () =
  List.iter
    (fun name ->
      Alcotest.(check bool) ("has " ^ name) true (Registry.by_name name <> None))
    [ "readelf"; "pngtest"; "gif2tiff"; "tiff2rgba"; "tiff2bw"; "dwarfdump"; "tcpdump" ];
  Alcotest.(check int) "seven targets" 7 (List.length Registry.all);
  Alcotest.(check bool) "unknown is none" true (Registry.by_name "nope" = None)

let test_all_compile_and_validate () =
  List.iter
    (fun t ->
      let prog = Registry.program t in
      Validate.check_exn prog;
      Alcotest.(check bool) (t.Registry.name ^ " is sizeable") true
        (Pbse_ir.Types.block_count prog > 60))
    Registry.all

let test_benign_seeds_run_clean () =
  List.iter
    (fun t ->
      let prog = Registry.program t in
      List.iter
        (fun (label, seed) ->
          let r = Concrete.run prog ~input:seed in
          match r.Concrete.outcome with
          | Concrete.Exit 0L -> ()
          | Concrete.Exit c ->
            Alcotest.fail
              (Printf.sprintf "%s/%s exited %Ld" t.Registry.name label c)
          | Concrete.Fault { detail; _ } ->
            Alcotest.fail (Printf.sprintf "%s/%s faulted: %s" t.Registry.name label detail)
          | Concrete.Halted { message; _ } ->
            Alcotest.fail (Printf.sprintf "%s/%s halted: %s" t.Registry.name label message)
          | Concrete.Out_of_fuel ->
            Alcotest.fail (Printf.sprintf "%s/%s ran out of fuel" t.Registry.name label))
        t.Registry.seeds)
    Registry.all

let test_buggy_seeds_fault_with_expected_kind () =
  List.iter
    (fun t ->
      let prog = Registry.program t in
      List.iter
        (fun (label, seed) ->
          let r = Concrete.run prog ~input:seed in
          match r.Concrete.outcome with
          | Concrete.Fault { kind; _ } ->
            let expected = List.map snd t.Registry.planted_bugs in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s fault kind %s is planted" t.Registry.name label kind)
              true (List.mem kind expected)
          | _ ->
            Alcotest.fail
              (Printf.sprintf "%s/%s should fault" t.Registry.name label))
        t.Registry.buggy_seeds)
    Registry.all

let test_seed_lookup () =
  let t = Option.get (Registry.by_name "pngtest") in
  Alcotest.(check bool) "benign seed" true (Bytes.length (Registry.seed t "small") > 0);
  Alcotest.(check bool) "buggy seed" true
    (Bytes.length (Registry.seed t "buggy-month") > 0);
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Registry.seed t "missing");
       false
     with Not_found -> true)

let test_planted_bug_totals_match_paper_scale () =
  (* the paper found 21 bugs: 2 libpng + 5 libtiff + 4 readelf + 10
     libdwarf; our analogs plant 2 + 5 + 4 + 8 (see DESIGN.md) *)
  let count name =
    match Registry.by_name name with
    | Some t -> List.length t.Registry.planted_bugs
    | None -> 0
  in
  Alcotest.(check int) "pngtest" 2 (count "pngtest");
  Alcotest.(check int) "libtiff family" 5
    (count "gif2tiff" + count "tiff2rgba" + count "tiff2bw");
  Alcotest.(check int) "readelf" 4 (count "readelf");
  Alcotest.(check int) "dwarfdump" 8 (count "dwarfdump");
  Alcotest.(check int) "tcpdump has none" 0 (count "tcpdump")

let test_cve_labels_reference_planted_bugs () =
  List.iter
    (fun t ->
      List.iter
        (fun (label, cve) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s labels a planted bug" t.Registry.name cve)
            true
            (List.mem_assoc label t.Registry.planted_bugs))
        t.Registry.cves)
    Registry.all

let test_seed_pools_have_sizes () =
  List.iter
    (fun t ->
      Alcotest.(check bool) (t.Registry.name ^ " has small seed") true
        (List.mem_assoc "small" t.Registry.seeds);
      Alcotest.(check bool) (t.Registry.name ^ " has large seed") true
        (List.mem_assoc "large" t.Registry.seeds);
      let small = List.assoc "small" t.Registry.seeds in
      let large = List.assoc "large" t.Registry.seeds in
      Alcotest.(check bool) (t.Registry.name ^ " large > small") true
        (Bytes.length large > Bytes.length small))
    Registry.all

(* Bug reachability through the engine itself: for each target with buggy
   seeds, running the *buggy* seed concolically terminates in the fault
   and the executor records a confirmed bug of a planted kind. *)
let test_buggy_seed_through_symbolic_engine () =
  List.iter
    (fun t ->
      let prog = Registry.program t in
      List.iter
        (fun (label, seed) ->
          let clock = Pbse_util.Vclock.create () in
          let exec = Pbse_exec.Executor.create ~clock prog ~input:seed in
          let ix = Pbse_concolic.Trace.indexer () in
          let result = Pbse_concolic.Concolic.run exec ix in
          (match result.Pbse_concolic.Concolic.outcome with
           | Pbse_concolic.Concolic.Stopped _ -> ()
           | _ ->
             Alcotest.fail
               (Printf.sprintf "%s/%s: concolic run should stop at the fault"
                  t.Registry.name label));
          match Pbse_exec.Executor.bugs exec with
          | [] -> Alcotest.fail (Printf.sprintf "%s/%s: no bug recorded" t.Registry.name label)
          | bug :: _ ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: %s is planted" t.Registry.name label
                 bug.Pbse_exec.Bug.kind)
              true
              (List.mem bug.Pbse_exec.Bug.kind (List.map snd t.Registry.planted_bugs));
            Alcotest.(check bool) "confirmed by replay" true bug.Pbse_exec.Bug.confirmed)
        t.Registry.buggy_seeds)
    Registry.all

(* The paper's Fig 5 case study: from the benign small seed, pbSE reaches
   tiff2rgba's CIELab read (the put_cielab oob-read) within 10
   paper-hours of 120 000 units. bench/main.exe claims checks the same
   at full budget, with KLEE's miss beside it. *)
let test_fig5_cielab_read_from_benign_seed () =
  let t = Option.get (Registry.by_name "tiff2rgba") in
  let report =
    Pbse_session.Session.run (Registry.program t) ~seed:(Registry.seed t "small")
      ~deadline:1_200_000
  in
  let cielab =
    List.filter
      (fun ((b : Pbse_exec.Bug.t), _) ->
        b.Pbse_exec.Bug.kind = "oob-read"
        && String.starts_with ~prefix:"put_cielab/" b.Pbse_exec.Bug.location)
      report.Pbse.Driver.bugs
  in
  match cielab with
  | [] -> Alcotest.fail "pbSE missed the CIELab read within 10h"
  | (bug, phase) :: _ ->
    Alcotest.(check bool) "witness confirmed by replay" true bug.Pbse_exec.Bug.confirmed;
    Alcotest.(check bool) "found past the first phase" true (phase > 1)

let test_sources_carry_bug_annotations () =
  List.iter
    (fun t ->
      List.iter
        (fun (label, _) ->
          let marker = "BUG(" ^ label in
          let found =
            let src = t.Registry.source and nl = String.length ("BUG(" ^ label) in
            let hl = String.length src in
            let rec scan i =
              i + nl <= hl && (String.sub src i nl = marker || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s source documents %s" t.Registry.name label)
            true found)
        t.Registry.planted_bugs)
    Registry.all

(* the MiniC prelude's ULEB128 decoder against an OCaml reference *)
let test_prelude_uleb () =
  let src =
    Pbse_targets.Prelude.wrap
      "fn main() { out(uleb(0)); out(uleb_len(0)); out(uleb(5)); out(uleb_len(5)); return 0; }"
  in
  let prog = Pbse_lang.Frontend.compile src in
  let encode v =
    let buf = Buffer.create 8 in
    let rec go v =
      if v < 0x80 then Buffer.add_char buf (Char.chr v)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
        go (v lsr 7)
      end
    in
    go v;
    Buffer.contents buf
  in
  List.iter
    (fun v ->
      let enc = encode v in
      let input = Bytes.of_string (enc ^ String.make 5 '\x00' ^ encode (v * 3)) in
      let input =
        (* place the second uleb at offset 5 regardless of enc length *)
        let b = Bytes.make 16 '\000' in
        Bytes.blit_string enc 0 b 0 (String.length enc);
        Bytes.blit_string (encode (v * 3)) 0 b 5 (String.length (encode (v * 3)));
        ignore input;
        b
      in
      let r = Concrete.run prog ~input in
      match r.Concrete.output with
      | [ v0; l0; v5; l5 ] ->
        Alcotest.(check int64) (Printf.sprintf "uleb %d" v) (Int64.of_int v) v0;
        Alcotest.(check int64) "len" (Int64.of_int (String.length enc)) l0;
        Alcotest.(check int64) "second value" (Int64.of_int (v * 3)) v5;
        Alcotest.(check bool) "second len positive" true (l5 > 0L)
      | _ -> Alcotest.fail "wrong output arity")
    [ 0; 1; 127; 128; 300; 16384; 99999 ]

let test_bug_to_string_mentions_fields () =
  let bug =
    {
      Pbse_exec.Bug.kind = "oob-read";
      gid = 7;
      location = "f/.2";
      detail = "deep trouble";
      witness = Bytes.make 3 'x';
      vtime = 42;
      state_id = 9;
      confirmed = true;
    }
  in
  let s = Pbse_exec.Bug.to_string bug in
  List.iter
    (fun fragment ->
      let nl = String.length fragment and hl = String.length s in
      let rec scan i = i + nl <= hl && (String.sub s i nl = fragment || scan (i + 1)) in
      Alcotest.(check bool) ("mentions " ^ fragment) true (scan 0))
    [ "oob-read"; "f/.2"; "deep trouble"; "confirmed"; "t=42" ]

let _ = all_names

let suite =
  [
    Alcotest.test_case "expected targets present" `Quick test_expected_targets_present;
    Alcotest.test_case "all compile and validate" `Quick test_all_compile_and_validate;
    Alcotest.test_case "benign seeds run clean" `Quick test_benign_seeds_run_clean;
    Alcotest.test_case "buggy seeds fault" `Quick test_buggy_seeds_fault_with_expected_kind;
    Alcotest.test_case "seed lookup" `Quick test_seed_lookup;
    Alcotest.test_case "planted bug totals" `Quick test_planted_bug_totals_match_paper_scale;
    Alcotest.test_case "cve labels valid" `Quick test_cve_labels_reference_planted_bugs;
    Alcotest.test_case "seed pools sized" `Quick test_seed_pools_have_sizes;
    Alcotest.test_case "buggy seeds through engine" `Quick
      test_buggy_seed_through_symbolic_engine;
    Alcotest.test_case "fig5 cielab read from benign seed" `Slow
      test_fig5_cielab_read_from_benign_seed;
    Alcotest.test_case "sources annotate bugs" `Quick test_sources_carry_bug_annotations;
    Alcotest.test_case "prelude uleb" `Quick test_prelude_uleb;
    Alcotest.test_case "bug to_string" `Quick test_bug_to_string_mentions_fields;
  ]
