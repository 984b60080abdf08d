(* Instruments carry the owning registry's enabled flag, so hot-path
   mutation is one boolean load regardless of which registry owns the
   instrument. *)

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
    histograms : (string, histogram) Hashtbl.t;
    spans : (string, span) Hashtbl.t;
  }

  let create ?(enabled = false) () =
    {
      en = enabled;
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

  let histogram t name =
    intern t.histograms name (fun h_name ->
        { h_name; h_en = t.en; h_buckets = Array.make nbuckets 0; h_count = 0;
          h_sum = 0; h_min = 0; h_max = 0 })

  let span t name =
    intern t.spans name (fun s_name -> { s_name; s_en = t.en; s_count = 0; s_total = 0 })

  (* Merge laws (docs/parallelism.md): spans add, histograms add
     bucket-wise with min/max hulls. Every law is commutative and
     associative with the zero instrument as identity, so merging
     per-session registries in any grouping yields the same totals — the
     pool merges in seed-ordinal order purely for reproducibility of
     intermediate states. Merging bypasses the enabled gate: it is
     bookkeeping, not hot-path instrumentation. *)
  let merge_into ~into src =
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
