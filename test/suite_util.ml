open Pbse_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs from parent" true
    (Rng.int a max_int <> Rng.int b max_int)

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_int_roughly_uniform () =
  let rng = Rng.create 5 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Rng.int rng 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "within 10% of uniform" true
        (abs (c - (n / 4)) < n / 10))
    counts

let test_vclock_basics () =
  let c = Vclock.create () in
  Alcotest.(check int) "starts at zero" 0 (Vclock.now c);
  Vclock.tick c;
  Vclock.advance c 10;
  Alcotest.(check int) "tick + advance" 11 (Vclock.now c)

let test_vclock_rejects_negative () =
  let c = Vclock.create () in
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Vclock.advance: negative increment") (fun () ->
      Vclock.advance c (-1))

let test_table_render () =
  let t = Tablefmt.create [ "name"; "bbs" ] in
  Tablefmt.add_row t [ "dfs"; "414" ];
  Tablefmt.add_row t [ "pbSE" ];
  let out = Tablefmt.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 1 = "|");
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + separator + 2 rows" 4 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check int) "aligned widths" (String.length (List.hd lines))
        (String.length line))
    lines

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int rejects nonpositive" `Quick test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng roughly uniform" `Quick test_rng_int_roughly_uniform;
    Alcotest.test_case "vclock basics" `Quick test_vclock_basics;
    Alcotest.test_case "vclock rejects negative" `Quick test_vclock_rejects_negative;
    Alcotest.test_case "tablefmt render" `Quick test_table_render;
  ]
