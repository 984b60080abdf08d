(* Quickstart: compile a MiniC parser inline, run pbSE on it, and print
   the phases and the bug it finds.

     dune exec examples/quickstart.exe

   The program below is a toy "record file" parser with the structure the
   paper cares about: a magic check, an input-bounded loop (the trap
   phase), and a deeper handler hiding an out-of-bounds write. *)

let source =
  {|
// a record file: magic 'R' 'X', record count, then (tag, value) pairs
fn main() {
  if (in(0) != 'R') { return 1; }
  if (in(1) != 'X') { return 1; }
  var count = in(2);
  if (count > 32) { return 1; }
  var totals = alloc(16);
  var i = 0;
  while (i < count) {            // the trap: bounded by an input byte
    var tag = in(3 + i * 2);
    var value = in(4 + i * 2);
    if (tag < 16) {
      totals[tag] = t8(totals[tag] + value);
    } else {
      if (tag == 0x77) {
        totals[value] = 1;       // BUG: value is not bounded by 16
      }
    }
    i = i + 1;
  }
  out(totals[0]);
  return 0;
}
|}

let () =
  let program = Pbse_lang.Frontend.compile source in
  (* a benign seed: two small records *)
  let seed = Bytes.of_string "RX\002\001\010\002\020" in
  let report = Pbse_session.Session.run program ~seed ~deadline:60_000 in

  let division = report.Pbse_session.Session.division in
  Printf.printf "phases found: %d (of which %d trap phases)\n"
    (List.length division.Pbse_phase.Phase.phases)
    division.Pbse_phase.Phase.trap_count;
  Printf.printf "phase strip:  %s\n" (Pbse_phase.Phase.render_strip division);
  Printf.printf "blocks covered: %d\n"
    (Pbse_exec.Coverage.count
       (Pbse_exec.Executor.coverage report.Pbse_session.Session.executor));

  match report.Pbse_session.Session.bugs with
  | [] -> print_endline "no bugs found (try a larger --deadline)"
  | bugs ->
    List.iter
      (fun ((bug : Pbse_exec.Bug.t), phase) ->
        Printf.printf "bug in phase %d: %s\n" phase (Pbse_exec.Bug.to_string bug);
        print_string "witness bytes:";
        Bytes.iter (fun c -> Printf.printf " %02x" (Char.code c)) bug.Pbse_exec.Bug.witness;
        print_newline ())
      bugs
