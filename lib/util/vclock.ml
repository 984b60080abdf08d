type t = { mutable now : int }

let create () = { now = 0 }

let now t = t.now

let tick t = t.now <- t.now + 1

let advance t n =
  if n < 0 then invalid_arg "Vclock.advance: negative increment";
  t.now <- t.now + n
