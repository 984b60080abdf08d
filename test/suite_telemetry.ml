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

let test_bucket_lo_roundtrip () =
  (* bucket_lo is the smallest value mapping into its bucket *)
  Alcotest.(check int) "lo 0" 0 (Telemetry.bucket_lo 0);
  for i = 1 to Telemetry.nbuckets - 1 do
    let lo = Telemetry.bucket_lo i in
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d maps back" i) i
      (Telemetry.bucket_index lo);
    if i >= 2 then
      Alcotest.(check int)
        (Printf.sprintf "lo %d - 1 maps below" i)
        (i - 1)
        (Telemetry.bucket_index (lo - 1))
  done

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

let test_disabled_is_inert () =
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter r "test.gated" in
  let g = Telemetry.Registry.gauge r "test.gated_gauge" in
  let h = Telemetry.Registry.histogram r "test.gated_hist" in
  let s = Telemetry.Registry.span r "test.gated_span" in
  Telemetry.incr c;
  Telemetry.add c 41;
  Telemetry.set_gauge g 7;
  Telemetry.observe h 99;
  let v = Telemetry.with_span s ~now:(fun () -> 123) (fun () -> "ok") in
  Alcotest.(check string) "with_span passes result through" "ok" v;
  Alcotest.(check int) "counter untouched" 0 (Telemetry.counter_value c);
  Alcotest.(check int) "gauge untouched" 0 (Telemetry.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0
    (Telemetry.histogram_snapshot h).Telemetry.hs_count;
  Alcotest.(check int) "span untouched" 0 (Telemetry.span_count s)

let test_enabled_records () =
  let r = Telemetry.Registry.create ~enabled:true () in
  let c = Telemetry.Registry.counter r "test.live" in
  Telemetry.incr c;
  Telemetry.add c 41;
  Alcotest.(check int) "counter" 42 (Telemetry.counter_value c);
  (* same name returns the same instrument *)
  Alcotest.(check int) "interned by name" 42
    (Telemetry.counter_value (Telemetry.Registry.counter r "test.live"));
  (* registries share nothing: a fresh one starts from zero *)
  let fresh = Telemetry.Registry.create ~enabled:true () in
  Alcotest.(check int) "fresh registry starts at zero" 0
    (Telemetry.counter_value (Telemetry.Registry.counter fresh "test.live"))

let test_span_fake_clock () =
  let r = Telemetry.Registry.create ~enabled:true () in
  let s = Telemetry.Registry.span r "test.clock" in
  let t = ref 0 in
  let now () = !t in
  Telemetry.with_span s ~now (fun () -> t := !t + 10);
  Telemetry.with_span s ~now (fun () -> t := !t + 7);
  Alcotest.(check int) "two spans" 2 (Telemetry.span_count s);
  Alcotest.(check int) "total elapsed" 17 (Telemetry.span_total s);
  (* exceptions still charge the span *)
  (try
     Telemetry.with_span s ~now (fun () ->
         t := !t + 3;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "exception counted" 3 (Telemetry.span_count s);
  Alcotest.(check int) "exception charged" 20 (Telemetry.span_total s)

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
          summarized = 1;
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
    Alcotest.(check int) "missing metric is 0" 0 (Report.metric r' "nope")

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
let loaded ~c ~g ~h ~sp =
  let r = Telemetry.Registry.create ~enabled:true () in
  Telemetry.add (Telemetry.Registry.counter r "c") c;
  Telemetry.set_gauge (Telemetry.Registry.gauge r "g") g;
  List.iter (Telemetry.observe (Telemetry.Registry.histogram r "h")) h;
  let span = Telemetry.Registry.span r "s" in
  let t = ref 0 in
  Telemetry.with_span span ~now:(fun () -> !t) (fun () -> t := sp);
  r

let merge_snapshot r =
  ( Telemetry.Registry.snapshot_counters r,
    Telemetry.Registry.snapshot_gauges r,
    Telemetry.Registry.snapshot_spans r,
    List.map
      (fun h ->
        Telemetry.
          (h.hs_name, h.hs_count, h.hs_sum, h.hs_min, h.hs_max, h.hs_buckets))
      (Telemetry.Registry.snapshot_histograms r) )

let test_merge_laws () =
  let a () = loaded ~c:3 ~g:7 ~h:[ 1; 100 ] ~sp:5 in
  let b () = loaded ~c:4 ~g:2 ~h:[ 50 ] ~sp:9 in
  let into = Telemetry.Registry.create ~enabled:true () in
  Telemetry.Registry.merge_into ~into (a ());
  Telemetry.Registry.merge_into ~into (b ());
  Alcotest.(check (list (pair string int)))
    "counters add" [ ("c", 7) ]
    (Telemetry.Registry.snapshot_counters into);
  Alcotest.(check (list (pair string int)))
    "gauges keep the max" [ ("g", 7) ]
    (Telemetry.Registry.snapshot_gauges into);
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
  Telemetry.Registry.merge_into ~into:ab (loaded ~c:3 ~g:7 ~h:[ 1; 100 ] ~sp:5);
  Telemetry.Registry.merge_into ~into:ab (loaded ~c:4 ~g:2 ~h:[ 50 ] ~sp:9);
  let ba = Telemetry.Registry.create () in
  Telemetry.Registry.merge_into ~into:ba (loaded ~c:4 ~g:2 ~h:[ 50 ] ~sp:9);
  Telemetry.Registry.merge_into ~into:ba (loaded ~c:3 ~g:7 ~h:[ 1; 100 ] ~sp:5);
  Alcotest.(check bool) "merge is commutative" true
    (merge_snapshot ab = merge_snapshot ba)

let test_merge_associates () =
  let parts () =
    [
      loaded ~c:1 ~g:9 ~h:[ 4 ] ~sp:2;
      loaded ~c:2 ~g:3 ~h:[ 8; 8 ] ~sp:4;
      loaded ~c:5 ~g:6 ~h:[] ~sp:0;
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
  let src = loaded ~c:6 ~g:1 ~h:[ 2 ] ~sp:3 in
  let into = Telemetry.Registry.create () in
  Telemetry.Registry.merge_into ~into src;
  Alcotest.(check (list (pair string int)))
    "disabled registries still merge" [ ("c", 6) ]
    (Telemetry.Registry.snapshot_counters into)

let suite =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "bucket_lo roundtrip" `Quick test_bucket_lo_roundtrip;
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
