(* Log-linear ("HDR-style") histogram over non-negative integers, with
   one writer: each recording domain keeps its own histogram and the
   readers merge snapshots, so no recorder touches a shared cache line.

   Bucket layout: values below [sub_count] get one bucket each (exact);
   above that, every power-of-two range is split into [sub_count] linear
   sub-buckets, so the relative width of any bucket is at most
   1/sub_count (~3.1% with 32 sub-buckets).  The bucket index is a pure
   function of the value — no per-instance bounds array — which is what
   makes the merge lossless: two histograms merge by summing bucket
   counts, and the merged percentiles are exactly what
   a single histogram fed both streams would report. *)

let sub_bits = 5

let sub_count = 1 lsl sub_bits

(* Values are clamped into [0, max_trackable]; 2^60-1 in ns is ~36 years
   of latency, comfortably beyond anything we time. *)
let max_trackable = (1 lsl 60) - 1

(* msb position via a byte-wide loop plus a 256-entry table: bounded
   work, no allocation (int array reads return immediates). *)
let msb8 =
  Array.init 256 (fun i ->
      let rec go v k = if v <= 1 then k else go (v lsr 1) (k + 1) in
      go i 0)

let rec msb v k =
  if v lsr 8 = 0 then k + Array.unsafe_get msb8 v else msb (v lsr 8) (k + 8)

let bucket_index v =
  if v < sub_count then v
  else
    let k = msb v 0 in
    let shift = k - sub_bits in
    ((shift + 1) lsl sub_bits) + ((v lsr shift) - sub_count)

(* max_trackable has msb 59, so the largest index is
   ((59-5)+1)*32 + 31 = 1791. *)
let num_buckets = bucket_index max_trackable + 1

let bucket_low i =
  if i < sub_count then i
  else
    let shift = (i lsr sub_bits) - 1 in
    (sub_count + (i land (sub_count - 1))) lsl shift

let bucket_high i =
  if i < sub_count then i
  else
    let shift = (i lsr sub_bits) - 1 in
    bucket_low i + (1 lsl shift) - 1

(* Midpoint, the representative value a percentile query reports (before
   clamping to the recorded min/max). *)
let bucket_mid i = bucket_low i + ((bucket_high i - bucket_low i) / 2)

(* ------------------------------------------------------------------ *)
(* The histogram: one plain [int] per bucket and one writer.  A
   recording domain owns its histogram; histograms of different
   recorders meet only as snapshots, through [merged] and [merge].     *)

type t = {
  counts : int array;  (* length num_buckets *)
  mutable lo : int;  (* recorded minimum; max_int when empty *)
  mutable hi : int;  (* recorded maximum; -1 when empty *)
}

let create () = { counts = Array.make num_buckets 0; lo = max_int; hi = -1 }

(* The bounds are written before the count, and [merged] (so also
   [snapshot]) reads them after the counts, so a snapshot taken from
   another domain while the writer records does not see a count without
   its bounds. *)
let record t v =
  let v = if v < 0 then 0 else if v > max_trackable then max_trackable else v in
  if v < t.lo then t.lo <- v;
  if v > t.hi then t.hi <- v;
  let i = bucket_index v in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1)

(* ------------------------------------------------------------------ *)
(* Snapshots: plain int arrays, safe to merge/query on any domain.      *)

type snapshot = {
  buckets : int array;  (* length num_buckets *)
  total : int;
  smin : int;  (* recorded minimum; 0 when empty *)
  smax : int;  (* recorded maximum; 0 when empty *)
}

(* Counts first, then each histogram's bounds (see [record]). *)
let merged ts =
  let buckets = Array.make num_buckets 0 in
  let lo = ref max_int and hi = ref (-1) in
  Array.iter
    (fun t ->
       for i = 0 to num_buckets - 1 do
         Array.unsafe_set buckets i
           (Array.unsafe_get buckets i + Array.unsafe_get t.counts i)
       done;
       if t.lo < !lo then lo := t.lo;
       if t.hi > !hi then hi := t.hi)
    ts;
  let total = Array.fold_left ( + ) 0 buckets in
  { buckets;
    total;
    smin = (if total = 0 then 0 else !lo);
    smax = (if total = 0 then 0 else !hi) }

let snapshot t = merged [| t |]

let merge a b =
  let buckets = Array.mapi (fun i c -> c + b.buckets.(i)) a.buckets in
  let total = a.total + b.total in
  { buckets;
    total;
    smin =
      (if a.total = 0 then b.smin
       else if b.total = 0 then a.smin
       else min a.smin b.smin);
    smax =
      (if a.total = 0 then b.smax
       else if b.total = 0 then a.smax
       else max a.smax b.smax) }

let count s = s.total

let min_value s = s.smin

let max_value s = s.smax

let bucket_count s i = s.buckets.(i)

(* Sum/mean reconstructed from bucket midpoints: deterministic given the
   bucket counts (so it survives merging unchanged), within the bucket
   relative error of the true sum. *)
let sum_approx s =
  let acc = ref 0.0 in
  Array.iteri
    (fun i c ->
       if c > 0 then acc := !acc +. (float_of_int c *. float_of_int (bucket_mid i)))
    s.buckets;
  !acc

let mean s = if s.total = 0 then nan else sum_approx s /. float_of_int s.total

let percentile s p =
  if s.total = 0 then nan
  else if p <= 0. then float_of_int s.smin
  else if p >= 100. then float_of_int s.smax
  else begin
    let rank = p /. 100. *. float_of_int s.total in
    let rec go i cum =
      if i >= num_buckets then float_of_int s.smax
      else
        let c = s.buckets.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= rank then
          let v = bucket_mid i in
          let v = if v < s.smin then s.smin else if v > s.smax then s.smax else v in
          float_of_int v
        else go (i + 1) cum'
    in
    go 0 0
  end
