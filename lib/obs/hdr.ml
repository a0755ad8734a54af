(* Log-linear ("HDR-style") histogram over non-negative integers, sharded
   per domain so concurrent recorders never contend on a cache line.

   Bucket layout: values below [sub_count] get one bucket each (exact);
   above that, every power-of-two range is split into [sub_count] linear
   sub-buckets, so the relative width of any bucket is at most
   1/sub_count (~3.1% with 32 sub-buckets).  The bucket index is a pure
   function of the value — no per-instance bounds array — which is what
   makes the merge lossless: two histograms (or two shards of one) merge
   by summing bucket counts, and the merged percentiles are exactly what
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
(* Shards.  Each bucket is an [int Atomic.t] carried in its own 8-word
   block (an all-immediate 8-element int array is a valid [int Atomic.t]
   whose atomic operations act on element 0; the other 7 words are
   padding), so no two counters — and in particular no two shards'
   counters — share a 64-byte line. *)

let slot_words = 8

let make_slot (v : int) : int Atomic.t = Obj.magic (Array.make slot_words v)

type shard = {
  counts : int Atomic.t array;
  s_min : int Atomic.t;  (* max_int when the shard is empty *)
  s_max : int Atomic.t;  (* -1 when the shard is empty *)
}

type t = { shards : shard array; mask : int }

let make_shard () =
  { counts = Array.init num_buckets (fun _ -> make_slot 0);
    s_min = make_slot max_int;
    s_max = make_slot (-1) }

let rec pow2_above k n = if n >= k then n else pow2_above k (n * 2)

let default_shards = 8

let create ?(shards = default_shards) () =
  if shards <= 0 then invalid_arg "Obs.Hdr.create: shards must be positive";
  let shards = pow2_above shards 1 in
  { shards = Array.init shards (fun _ -> make_shard ()); mask = shards - 1 }

let num_shards t = Array.length t.shards

(* Lower [v] into the atomic if it improves the bound; after warm-up this
   is one load and no store. *)
let rec update_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then update_min a v

let rec update_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then update_max a v

let record t v =
  let v = if v < 0 then 0 else if v > max_trackable then max_trackable else v in
  let shard =
    Array.unsafe_get t.shards ((Domain.self () :> int) land t.mask)
  in
  ignore
    (Atomic.fetch_and_add (Array.unsafe_get shard.counts (bucket_index v)) 1
     : int);
  update_min shard.s_min v;
  update_max shard.s_max v

(* ------------------------------------------------------------------ *)
(* Snapshots: plain int arrays, safe to merge/query on any domain.      *)

type snapshot = {
  buckets : int array;  (* length num_buckets *)
  total : int;
  smin : int;  (* recorded minimum; 0 when empty *)
  smax : int;  (* recorded maximum; 0 when empty *)
}

let snapshot t =
  let buckets = Array.make num_buckets 0 in
  let smin = ref max_int and smax = ref (-1) in
  Array.iter
    (fun sh ->
       for i = 0 to num_buckets - 1 do
         buckets.(i) <- buckets.(i) + Atomic.get sh.counts.(i)
       done;
       let m = Atomic.get sh.s_min in
       if m < !smin then smin := m;
       let m = Atomic.get sh.s_max in
       if m > !smax then smax := m)
    t.shards;
  let total = Array.fold_left ( + ) 0 buckets in
  { buckets;
    total;
    smin = (if total = 0 then 0 else !smin);
    smax = (if total = 0 then 0 else !smax) }

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
