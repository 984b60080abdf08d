module Telemetry = Pbse_telemetry.Telemetry
module Report = Pbse_telemetry.Report
module Json = Pbse_telemetry.Json
module Driver = Pbse.Driver
module Session = Pbse_session.Session

(* The runtime of an instrumented run: a fresh, enabled registry, so
   the run's report carries its spans and histograms and nothing else. *)
let instrumented ?(config = Session.default_config) () =
  Session.runtime_of_config ~registry:(Telemetry.Registry.create ~enabled:true ()) config

(* --- histogram bucketing -------------------------------------------------- *)

let test_bucket_edges () =
  let check v expect =
    Alcotest.(check int) (Printf.sprintf "bucket of %d" v) expect
      (Telemetry.bucket_index v)
  in
  check min_int 0;
  check (-1) 0;
  check 0 0;
  check 1 1;
  check 2 2;
  check 3 2;
  check 4 3;
  (* every power-of-two boundary: 2^k - 1 sits one bucket below 2^k *)
  for k = 1 to 61 do
    let p = 1 lsl k in
    Alcotest.(check int)
      (Printf.sprintf "2^%d" k)
      (k + 1) (Telemetry.bucket_index p);
    Alcotest.(check int)
      (Printf.sprintf "2^%d - 1" k)
      k
      (Telemetry.bucket_index (p - 1))
  done;
  check max_int (Telemetry.nbuckets - 1)

let test_histogram_snapshot () =
  let r = Telemetry.Registry.create ~enabled:true () in
  let h = Telemetry.Registry.histogram r "test.hist" in
  List.iter (Telemetry.observe h) [ 0; 1; 1; 5; 1024; max_int ];
  let s = Telemetry.histogram_snapshot h in
  Alcotest.(check int) "count" 6 s.Telemetry.hs_count;
  Alcotest.(check int) "min" 0 s.Telemetry.hs_min;
  Alcotest.(check int) "max" max_int s.Telemetry.hs_max;
  Alcotest.(check bool) "sum overflow-wrapped or exact" true
    (s.Telemetry.hs_sum = 0 + 1 + 1 + 5 + 1024 + max_int);
  Alcotest.(check (list (pair int int)))
    "nonzero buckets"
    [ (0, 1); (1, 2); (3, 1); (11, 1); (Telemetry.nbuckets - 1, 1) ]
    s.Telemetry.hs_buckets

(* --- gating ---------------------------------------------------------------- *)

(* (count, total elapsed) of a span, as reports render it *)
let span_stats r name =
  match List.find_opt (fun (n, _, _) -> n = name) (Telemetry.Registry.snapshot_spans r) with
  | Some (_, count, total) -> (count, total)
  | None -> Alcotest.failf "no span %s" name

let span_count r name = fst (span_stats r name)

let test_disabled_is_inert () =
  let r = Telemetry.Registry.create () in
  let h = Telemetry.Registry.histogram r "test.gated_hist" in
  let s = Telemetry.Registry.span r "test.gated_span" in
  Telemetry.observe h 99;
  let v = Telemetry.with_span s ~now:(fun () -> 123) (fun () -> "ok") in
  Alcotest.(check string) "with_span passes result through" "ok" v;
  Alcotest.(check int) "histogram untouched" 0
    (Telemetry.histogram_snapshot h).Telemetry.hs_count;
  Alcotest.(check int) "span untouched" 0 (span_count r "test.gated_span")

let test_enabled_records () =
  let r = Telemetry.Registry.create ~enabled:true () in
  let h = Telemetry.Registry.histogram r "test.live" in
  let s = Telemetry.Registry.span r "test.live" in
  Telemetry.observe h 1;
  Telemetry.observe h 41;
  Telemetry.with_span s ~now:(fun () -> 0) ignore;
  let hist r = Telemetry.histogram_snapshot (Telemetry.Registry.histogram r "test.live") in
  Alcotest.(check int) "histogram sum" 42 (hist r).Telemetry.hs_sum;
  (* same name returns the same instrument *)
  Alcotest.(check int) "histogram interned by name" 2 (hist r).Telemetry.hs_count;
  ignore (Telemetry.Registry.span r "test.live");
  Alcotest.(check (list (triple string int int))) "span interned by name"
    [ ("test.live", 1, 0) ] (Telemetry.Registry.snapshot_spans r);
  (* registries share nothing: a fresh one starts from zero *)
  let fresh = Telemetry.Registry.create ~enabled:true () in
  ignore (Telemetry.Registry.span fresh "test.live");
  Alcotest.(check int) "fresh histogram starts at zero" 0 (hist fresh).Telemetry.hs_count;
  Alcotest.(check int) "fresh span starts at zero" 0 (span_count fresh "test.live")

let test_span_fake_clock () =
  let r = Telemetry.Registry.create ~enabled:true () in
  let s = Telemetry.Registry.span r "test.clock" in
  let t = ref 0 in
  let now () = !t in
  Telemetry.with_span s ~now (fun () -> t := !t + 10);
  Telemetry.with_span s ~now (fun () -> t := !t + 7);
  Alcotest.(check (pair int int)) "two spans, 17 units" (2, 17) (span_stats r "test.clock");
  (* exceptions still charge the span *)
  (try
     Telemetry.with_span s ~now (fun () ->
         t := !t + 3;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (pair int int)) "exception counted and charged" (3, 20)
    (span_stats r "test.clock")

(* --- JSON ------------------------------------------------------------------ *)

let sample_report () =
  {
    Report.meta = [ ("target", "mini"); ("seed", "default") ];
    metrics = [ ("a.one", 1); ("b.two", 2); ("c.zero", 0) ];
    phases =
      [
        {
          Report.ordinal = 1;
          pid = 3;
          trap = true;
          seeded = 4;
          turns = 5;
          slices = 6;
          new_cover = 2;
          dwell = 1000;
          quarantined = 0;
          subsumed = 3;
        };
      ];
    seeds = [];
    histograms =
      [
        {
          Telemetry.hs_name = "test.h";
          hs_count = 2;
          hs_sum = 5;
          hs_min = 1;
          hs_max = 4;
          hs_buckets = [ (1, 1); (3, 1) ];
        };
      ];
  }

let test_report_roundtrip () =
  let r = sample_report () in
  let json = Report.to_json r in
  match Report.of_json json with
  | Error e -> Alcotest.fail ("of_json: " ^ e)
  | Ok r' ->
    Alcotest.(check string) "roundtrip is byte-identical" json (Report.to_json r');
    Alcotest.(check int) "metric lookup" 2 (Report.metric r' "b.two");
    Alcotest.(check int) "missing metric is 0" 0 (Report.metric r' "nope");
    (* a document written while the engine still had loop summaries: its
       phase row and metrics carry keys the report no longer has *)
    let old_doc =
      {|{"schema": "pbse-report/1",
  "meta": {"target": "mini", "seed": "default"},
  "metrics": {"a.one": 1, "b.two": 2, "c.zero": 0,
              "pathcond.loop_summaries": 0, "pathcond.summary_fallbacks": 13},
  "phases": [{"ordinal": 1, "pid": 3, "trap": true, "seeded": 4, "turns": 5,
              "slices": 6, "new_cover": 2, "dwell": 1000, "quarantined": 0,
              "subsumed": 3, "summarized": 1}],
  "histograms": {"test.h": {"count": 2, "sum": 5, "min": 1, "max": 4,
                            "buckets": [[1, 1], [3, 1]]}}}|}
    in
    (match Report.of_json old_doc with
     | Error e -> Alcotest.fail ("old document: " ^ e)
     | Ok old ->
       let cur = sample_report () in
       Alcotest.(check bool) "old meta kept" true (old.Report.meta = cur.Report.meta);
       Alcotest.(check bool) "old phase rows kept" true
         (old.Report.phases = cur.Report.phases);
       Alcotest.(check bool) "old histograms kept" true
         (old.Report.histograms = cur.Report.histograms);
       Alcotest.(check (list (pair string int)))
         "old metrics kept"
         (cur.Report.metrics
         @ [ ("pathcond.loop_summaries", 0); ("pathcond.summary_fallbacks", 13) ])
         old.Report.metrics)

let test_report_bad_schema () =
  let json = Report.to_json (sample_report ()) in
  (* bump the schema version in place *)
  let mangled =
    match String.index json '1' with
    | i -> String.sub json 0 i ^ "9" ^ String.sub json (i + 1) (String.length json - i - 1)
    | exception Not_found -> Alcotest.fail "no schema digit found"
  in
  match Report.of_json mangled with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error _ -> ()

let test_json_rejects_floats () =
  match Json.parse "{\"x\": 1.5}" with
  | Ok _ -> Alcotest.fail "float accepted"
  | Error _ -> ()

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_diff_self () =
  let r = sample_report () in
  let d = Report.diff r r in
  Alcotest.(check bool) "self-diff reports identical metrics" true
    (contains ~needle:"identical metrics" d);
  let other =
    { r with metrics = List.map (fun (k, v) -> (k, v + 1)) r.metrics }
  in
  let d2 = Report.diff r other in
  Alcotest.(check bool) "changed metrics reported" true
    (contains ~needle:"3 of 3 metrics changed" d2)

(* --- end-to-end determinism ------------------------------------------------ *)

let driver_report_json ?(scheduler = Session.default_config.Session.search.Session.scheduler)
    () =
  let config = Session.(with_search (fun s -> { s with scheduler }) default_config) in
  let report =
    Session.run ~config ~runtime:(instrumented ~config ())
      (Suite_core.mini_program ())
      ~seed:(Suite_core.mini_seed ()) ~deadline:80_000
  in
  Report.to_json (Session.run_report ~meta:[ ("target", "mini") ] report)

(* every scheduling policy must be deterministic: same seed, same
   byte-identical report *)
let test_identical_runs_identical_reports () =
  List.iter
    (fun scheduler ->
      let a = driver_report_json ~scheduler () in
      let b = driver_report_json ~scheduler () in
      Alcotest.(check bool) (scheduler ^ ": nonempty") true (String.length a > 0);
      Alcotest.(check string)
        (Printf.sprintf "byte-identical reports (%s)" scheduler)
        a b)
    Pbse_sched.Scheduler.names

let test_driver_report_has_core_metrics () =
  let json = driver_report_json () in
  match Report.of_json json with
  | Error e -> Alcotest.fail ("of_json: " ^ e)
  | Ok r ->
    Alcotest.(check bool) "solver.queries > 0" true (Report.metric r "solver.queries" > 0);
    Alcotest.(check bool) "phase.turns > 0" true (Report.metric r "phase.turns" > 0);
    Alcotest.(check bool) "exec.states > 0" true (Report.metric r "exec.states" > 0);
    Alcotest.(check bool) "has phase rows" true (List.length r.Report.phases > 0);
    Alcotest.(check bool) "has histograms (telemetry was on)" true
      (List.length r.Report.histograms > 0);
    Alcotest.(check bool) "span.driver.concolic recorded" true
      (Report.metric r "span.driver.concolic.count" > 0)

(* --- registry merge laws ---------------------------------------------------- *)

(* Build a registry with one instrument of each kind, loaded with the
   given values. Enabled while loading so the gated mutators record. *)
let loaded ~h ~sp =
  let r = Telemetry.Registry.create ~enabled:true () in
  List.iter (Telemetry.observe (Telemetry.Registry.histogram r "h")) h;
  let span = Telemetry.Registry.span r "s" in
  let t = ref 0 in
  Telemetry.with_span span ~now:(fun () -> !t) (fun () -> t := sp);
  r

let merge_snapshot r =
  ( Telemetry.Registry.snapshot_spans r,
    List.map
      (fun h ->
        Telemetry.
          (h.hs_name, h.hs_count, h.hs_sum, h.hs_min, h.hs_max, h.hs_buckets))
      (Telemetry.Registry.snapshot_histograms r) )

let test_merge_laws () =
  let a () = loaded ~h:[ 1; 100 ] ~sp:5 in
  let b () = loaded ~h:[ 50 ] ~sp:9 in
  let into = Telemetry.Registry.create ~enabled:true () in
  Telemetry.Registry.merge_into ~into (a ());
  Telemetry.Registry.merge_into ~into (b ());
  (match Telemetry.Registry.snapshot_spans into with
   | [ ("s", count, total) ] ->
     Alcotest.(check int) "span counts add" 2 count;
     Alcotest.(check int) "span totals add" 14 total
   | other -> Alcotest.fail (Printf.sprintf "span rows: %d" (List.length other)));
  (match Telemetry.Registry.snapshot_histograms into with
   | [ h ] ->
     Alcotest.(check int) "histogram counts add" 3 h.Telemetry.hs_count;
     Alcotest.(check int) "histogram sums add" 151 h.Telemetry.hs_sum;
     Alcotest.(check int) "min hull" 1 h.Telemetry.hs_min;
     Alcotest.(check int) "max hull" 100 h.Telemetry.hs_max
   | other -> Alcotest.fail (Printf.sprintf "histogram rows: %d" (List.length other)))

let test_merge_commutes () =
  let ab = Telemetry.Registry.create () in
  Telemetry.Registry.merge_into ~into:ab (loaded ~h:[ 1; 100 ] ~sp:5);
  Telemetry.Registry.merge_into ~into:ab (loaded ~h:[ 50 ] ~sp:9);
  let ba = Telemetry.Registry.create () in
  Telemetry.Registry.merge_into ~into:ba (loaded ~h:[ 50 ] ~sp:9);
  Telemetry.Registry.merge_into ~into:ba (loaded ~h:[ 1; 100 ] ~sp:5);
  Alcotest.(check bool) "merge is commutative" true
    (merge_snapshot ab = merge_snapshot ba)

let test_merge_associates () =
  let parts () =
    [
      loaded ~h:[ 4 ] ~sp:2;
      loaded ~h:[ 8; 8 ] ~sp:4;
      loaded ~h:[] ~sp:0;
    ]
  in
  (* ((a+b)+c) vs (a+(b+c)): merge the middle pair first *)
  let left = Telemetry.Registry.create () in
  List.iter (fun r -> Telemetry.Registry.merge_into ~into:left r) (parts ());
  let right = Telemetry.Registry.create () in
  (match parts () with
   | [ ra; rb; rc ] ->
     Telemetry.Registry.merge_into ~into:rb rc;
     Telemetry.Registry.merge_into ~into:right ra;
     Telemetry.Registry.merge_into ~into:right rb
   | _ -> assert false);
  Alcotest.(check bool) "merge is associative" true
    (merge_snapshot left = merge_snapshot right)

let test_merge_ignores_enabled_gate () =
  (* a disabled aggregate must still absorb worker values: merges happen
     at barriers, after the gated hot paths *)
  let src = loaded ~h:[ 2 ] ~sp:3 in
  let into = Telemetry.Registry.create () in
  Telemetry.Registry.merge_into ~into src;
  Alcotest.(check bool) "disabled registries still merge" true
    (merge_snapshot into = merge_snapshot src);
  Alcotest.(check (list (triple string int int)))
    "span merged" [ ("s", 1, 3) ]
    (Telemetry.Registry.snapshot_spans into)

let suite =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "histogram snapshot" `Quick test_histogram_snapshot;
    Alcotest.test_case "disabled registry is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "enabled registry records" `Quick test_enabled_records;
    Alcotest.test_case "spans under a fake clock" `Quick test_span_fake_clock;
    Alcotest.test_case "report JSON roundtrip" `Quick test_report_roundtrip;
    Alcotest.test_case "report rejects wrong schema" `Quick test_report_bad_schema;
    Alcotest.test_case "JSON parser rejects floats" `Quick test_json_rejects_floats;
    Alcotest.test_case "self-diff is quiet" `Quick test_diff_self;
    Alcotest.test_case "identical runs, identical reports" `Quick
      test_identical_runs_identical_reports;
    Alcotest.test_case "driver report has core metrics" `Quick
      test_driver_report_has_core_metrics;
    Alcotest.test_case "registry merge laws" `Quick test_merge_laws;
    Alcotest.test_case "registry merge commutes" `Quick test_merge_commutes;
    Alcotest.test_case "registry merge associates" `Quick test_merge_associates;
    Alcotest.test_case "merge ignores enabled gate" `Quick
      test_merge_ignores_enabled_gate;
  ]
