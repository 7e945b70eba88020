(* A fixed-size mergeable quantile sketch (HDR-histogram style), the one
   distribution metric behind [Obs.Sketchm], the timeline's sketch
   samples and the ledger's per-analyst cost percentiles.

   Positive samples land in log-linear buckets: 64 powers-of-two octaves
   (floor(log2 v) from 2^-24 to 2^39, ~6e-8 .. ~1e12, wide enough for
   noise magnitudes and nanosecond latencies alike) split into [subdiv]
   linear sub-buckets each, so any quantile is answered with a bounded
   relative error of ~1/subdiv (~3%). Bucket 0 absorbs zero,
   negative and non-finite samples. Exact min and max are kept alongside,
   and quantile reads are clamped into [min, max], so degenerate streams
   (all samples equal) report exact percentiles.

   Everything is integer bucket counts plus two exact floats, so [merge]
   is a commutative bucket-wise sum combined with min/max: merging in any
   grouping or order yields the same sketch, which makes sketch quantiles
   byte-identical at every --jobs for a deterministic sample stream. The
   structure never draws randomness and never rebuckets: observe is O(1),
   quantile is one O(buckets) scan. *)

let octaves = 64

let subdiv = 16

(* Octave 1 covers [2^min_exp, 2^(min_exp+1)); earlier values clamp in. *)
let min_exp = -24

let buckets = (octaves * subdiv) + 1

type t = {
  counts : int array; (* length [buckets]; slot 0 = nonpositive/non-finite *)
  mutable n : int;
  mutable mn : float; (* exact extrema over finite positive samples *)
  mutable mx : float;
}

let create () = { counts = Array.make buckets 0; n = 0; mn = nan; mx = nan }

let is_empty t = t.n = 0

let count t = t.n

let bucket_of v =
  if not (Float.is_finite v) || v <= 0. then 0
  else begin
    let e = int_of_float (Float.floor (Float.log2 v)) in
    let e = if e < min_exp then min_exp else if e > min_exp + octaves - 1 then min_exp + octaves - 1 else e in
    let lo = Float.ldexp 1. e in
    let sub = int_of_float (Float.floor ((v /. lo -. 1.) *. float_of_int subdiv)) in
    let sub = if sub < 0 then 0 else if sub >= subdiv then subdiv - 1 else sub in
    (((e - min_exp) * subdiv) + sub) + 1
  end

(* Midpoint of a bucket's value range — the reported representative. *)
let bucket_value b =
  if b = 0 then 0.
  else begin
    let b = b - 1 in
    let e = (b / subdiv) + min_exp in
    let sub = b mod subdiv in
    let lo = Float.ldexp 1. e in
    lo *. (1. +. ((float_of_int sub +. 0.5) /. float_of_int subdiv))
  end

let add_n t v k =
  if k < 0 then invalid_arg "Obs.Sketch.add_n: negative count";
  if k > 0 then begin
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + k;
    t.n <- t.n + k;
    if b > 0 then begin
      if Float.is_nan t.mn || v < t.mn then t.mn <- v;
      if Float.is_nan t.mx || v > t.mx then t.mx <- v
    end
  end

let add t v = add_n t v 1

let merge_into ~into src =
  for b = 0 to buckets - 1 do
    into.counts.(b) <- into.counts.(b) + src.counts.(b)
  done;
  into.n <- into.n + src.n;
  if not (Float.is_nan src.mn) && (Float.is_nan into.mn || src.mn < into.mn)
  then into.mn <- src.mn;
  if not (Float.is_nan src.mx) && (Float.is_nan into.mx || src.mx > into.mx)
  then into.mx <- src.mx

let copy t =
  { counts = Array.copy t.counts; n = t.n; mn = t.mn; mx = t.mx }

(* Window view between two cumulative captures of one sample stream:
   bucket-wise subtraction (valid because cumulative bucket counts are
   monotone). The window's exact extrema are unrecoverable, so they are
   estimated from the occupied bucket range — quantile reads on a diff
   carry the usual ~3% bucket error but are not clamped by exact
   extrema. *)
let diff ~newer ~older =
  let t = create () in
  for b = 0 to buckets - 1 do
    let d = newer.counts.(b) - older.counts.(b) in
    t.counts.(b) <- (if d < 0 then 0 else d)
  done;
  t.n <- Array.fold_left ( + ) 0 t.counts;
  let lo = ref 0 and hi = ref 0 in
  for b = 1 to buckets - 1 do
    if t.counts.(b) > 0 then begin
      if !lo = 0 then lo := b;
      hi := b
    end
  done;
  if !lo > 0 then begin
    t.mn <- bucket_value !lo;
    t.mx <- bucket_value !hi
  end;
  t

let min_value t = t.mn

let max_value t = t.mx

let clamp t v =
  if Float.is_nan t.mn then v
  else if v < t.mn then t.mn
  else if v > t.mx then t.mx
  else v

(* Rank-based read: the value of the ceil(q*n)-th smallest sample's
   bucket, clamped into the exact [min, max] envelope. *)
let quantile t q =
  if t.n = 0 then nan
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let rec go b acc =
      if b >= buckets then clamp t (bucket_value (buckets - 1))
      else begin
        let acc = acc + t.counts.(b) in
        if acc >= rank then (if b = 0 then 0. else clamp t (bucket_value b))
        else go (b + 1) acc
      end
    in
    go 0 0
  end

let reset t =
  Array.fill t.counts 0 buckets 0;
  t.n <- 0;
  t.mn <- nan;
  t.mx <- nan
