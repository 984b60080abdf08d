(* Instruments carry the owning registry's enabled flag, so hot-path
   mutation is one boolean load regardless of which registry owns the
   instrument. *)

type counter = { c_name : string; c_en : bool; mutable c_value : int }
type gauge = { g_name : string; g_en : bool; mutable g_value : int }

(* Bucket 0 holds v <= 0; bucket i >= 1 holds [2^(i-1), 2^i - 1]. OCaml
   ints are 63-bit, so max_int = 2^62 - 1 needs 62 value bits: 63 buckets
   (0..62) cover the whole nonnegative range with no clamping slack
   wasted. *)
let nbuckets = 63

let bucket_index v =
  if v <= 0 then 0
  else begin
    let bits = ref 0 in
    let n = ref v in
    while !n > 0 do
      incr bits;
      n := !n lsr 1
    done;
    min !bits (nbuckets - 1)
  end

let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)

type histogram = {
  h_name : string;
  h_en : bool;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type histogram_snapshot = {
  hs_name : string;
  hs_count : int;
  hs_sum : int;
  hs_min : int;
  hs_max : int;
  hs_buckets : (int * int) list;
}

type span = {
  s_name : string;
  s_en : bool;
  mutable s_count : int;
  mutable s_total : int;
}

let histogram_snapshot h =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
  done;
  {
    hs_name = h.h_name;
    hs_count = h.h_count;
    hs_sum = h.h_sum;
    hs_min = h.h_min;
    hs_max = h.h_max;
    hs_buckets = !buckets;
  }

(* --- registries ------------------------------------------------------------ *)

module Registry = struct
  type t = {
    en : bool;
    counters : (string, counter) Hashtbl.t;
    gauges : (string, gauge) Hashtbl.t;
    histograms : (string, histogram) Hashtbl.t;
    spans : (string, span) Hashtbl.t;
  }

  let create ?(enabled = false) () =
    {
      en = enabled;
      counters = Hashtbl.create 64;
      gauges = Hashtbl.create 16;
      histograms = Hashtbl.create 16;
      spans = Hashtbl.create 16;
    }

  let enabled t = t.en

  let intern table name make =
    match Hashtbl.find_opt table name with
    | Some v -> v
    | None ->
      let v = make name in
      Hashtbl.replace table name v;
      v

  let counter t name =
    intern t.counters name (fun c_name -> { c_name; c_en = t.en; c_value = 0 })

  let gauge t name =
    intern t.gauges name (fun g_name -> { g_name; g_en = t.en; g_value = 0 })

  let histogram t name =
    intern t.histograms name (fun h_name ->
        { h_name; h_en = t.en; h_buckets = Array.make nbuckets 0; h_count = 0;
          h_sum = 0; h_min = 0; h_max = 0 })

  let span t name =
    intern t.spans name (fun s_name -> { s_name; s_en = t.en; s_count = 0; s_total = 0 })

  (* Merge laws (docs/parallelism.md): counters and spans add, gauges
     keep the max, histograms add bucket-wise with min/max hulls. Every
     law is commutative and associative with the zero instrument as
     identity, so merging per-session registries in any grouping yields
     the same totals — the pool merges in seed-ordinal order purely for
     reproducibility of intermediate states. Merging bypasses the
     enabled gate: it is bookkeeping, not hot-path instrumentation. *)
  let merge_into ~into src =
    Hashtbl.iter
      (fun name (c : counter) ->
        let dst = counter into name in
        dst.c_value <- dst.c_value + c.c_value)
      src.counters;
    Hashtbl.iter
      (fun name (g : gauge) ->
        let dst = gauge into name in
        dst.g_value <- max dst.g_value g.g_value)
      src.gauges;
    Hashtbl.iter
      (fun name (h : histogram) ->
        let dst = histogram into name in
        if h.h_count > 0 then begin
          if dst.h_count = 0 then begin
            dst.h_min <- h.h_min;
            dst.h_max <- h.h_max
          end
          else begin
            if h.h_min < dst.h_min then dst.h_min <- h.h_min;
            if h.h_max > dst.h_max then dst.h_max <- h.h_max
          end;
          dst.h_count <- dst.h_count + h.h_count;
          dst.h_sum <- dst.h_sum + h.h_sum;
          Array.iteri
            (fun i n -> if n > 0 then dst.h_buckets.(i) <- dst.h_buckets.(i) + n)
            h.h_buckets
        end)
      src.histograms;
    Hashtbl.iter
      (fun name (s : span) ->
        let dst = span into name in
        dst.s_count <- dst.s_count + s.s_count;
        dst.s_total <- dst.s_total + s.s_total)
      src.spans

  let sorted_values table = Hashtbl.fold (fun _ v acc -> v :: acc) table []

  let snapshot_counters t =
    sorted_values t.counters
    |> List.map (fun c -> (c.c_name, c.c_value))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let restore_counters t pairs =
    (* campaign resume: reinstate values captured by snapshot_counters,
       creating missing counters; like merge_into this ignores the
       enabled gate — the snapshot is authoritative *)
    List.iter (fun (name, v) -> (counter t name).c_value <- v) pairs

  let snapshot_gauges t =
    sorted_values t.gauges
    |> List.map (fun g -> (g.g_name, g.g_value))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let snapshot_spans t =
    sorted_values t.spans
    |> List.map (fun s -> (s.s_name, s.s_count, s.s_total))
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

  let snapshot_histograms t =
    sorted_values t.histograms
    |> List.filter (fun h -> h.h_count > 0)
    |> List.map histogram_snapshot
    |> List.sort (fun a b -> String.compare a.hs_name b.hs_name)
end

(* --- mutation (gated) ----------------------------------------------------- *)

let incr c = if c.c_en then c.c_value <- c.c_value + 1
let add c n = if c.c_en then c.c_value <- c.c_value + n
let counter_value c = c.c_value

let set_gauge g v = if g.g_en then g.g_value <- v
let gauge_value g = g.g_value

let observe h v =
  if h.h_en then begin
    let i = bucket_index v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1;
    if h.h_count = 0 then begin
      h.h_min <- v;
      h.h_max <- v
    end
    else begin
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v
    end;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v
  end

let with_span s ~now f =
  if not s.s_en then f ()
  else begin
    let t0 = now () in
    let record () =
      s.s_count <- s.s_count + 1;
      s.s_total <- s.s_total + (now () - t0)
    in
    match f () with
    | r ->
      record ();
      r
    | exception e ->
      record ();
      raise e
  end

let span_count s = s.s_count
let span_total s = s.s_total
