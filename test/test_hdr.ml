(* Obs.Hdr: bucket geometry, percentile accuracy against exact sorted
   oracles, lossless merge of per-domain histograms, and the
   zero-allocation record path the live-telemetry overhead budget rests
   on. *)

let check_float name expected actual =
  Alcotest.(check (float 1e-9)) name expected actual

let bucket_geometry () =
  (* indices are monotone, bucket bounds tile the range, and every value
     lands inside its own bucket *)
  let check v =
    let i = Obs.Hdr.bucket_index v in
    Util.check_bool
      (Printf.sprintf "v=%d inside bucket %d [%d,%d]" v i
         (Obs.Hdr.bucket_low i) (Obs.Hdr.bucket_high i))
      true
      (Obs.Hdr.bucket_low i <= v && v <= Obs.Hdr.bucket_high i);
    if v > 0 then
      Util.check_bool
        (Printf.sprintf "index monotone at %d" v)
        true
        (Obs.Hdr.bucket_index (v - 1) <= i)
  in
  for v = 0 to 4096 do check v done;
  List.iter check
    [ 65_535; 65_536; 1_000_000; 123_456_789; (1 lsl 40) + 17; 1 lsl 59 ];
  (* relative bucket width is <= 1/32 above the linear range *)
  for i = 32 to Obs.Hdr.num_buckets - 1 do
    let w = Obs.Hdr.bucket_high i - Obs.Hdr.bucket_low i + 1 in
    Util.check_bool "bucket width <= low/32 + 1" true
      (w <= (Obs.Hdr.bucket_low i / 32) + 1)
  done

let record_and_bounds () =
  let h = Obs.Hdr.create () in
  List.iter (Obs.Hdr.record h) [ 5; 100; 100; 7_000; 123 ];
  let s = Obs.Hdr.snapshot h in
  Util.check_int "count" 5 (Obs.Hdr.count s);
  Util.check_int "min exact" 5 (Obs.Hdr.min_value s);
  Util.check_int "max exact" 7_000 (Obs.Hdr.max_value s);
  check_float "p0 = recorded min" 5. (Obs.Hdr.percentile s 0.);
  check_float "p100 = recorded max" 7_000. (Obs.Hdr.percentile s 100.);
  (* negatives clamp to 0, huge values clamp but stay counted *)
  Obs.Hdr.record h (-3);
  Obs.Hdr.record h max_int;
  let s = Obs.Hdr.snapshot h in
  Util.check_int "count after clamps" 7 (Obs.Hdr.count s);
  Util.check_int "clamped min" 0 (Obs.Hdr.min_value s)

let empty_snapshot () =
  let s = Obs.Hdr.snapshot (Obs.Hdr.create ()) in
  Util.check_int "empty count" 0 (Obs.Hdr.count s);
  Util.check_bool "empty percentile is nan" true
    (Float.is_nan (Obs.Hdr.percentile s 50.));
  Util.check_bool "empty mean is nan" true (Float.is_nan (Obs.Hdr.mean s))

(* Percentiles against the exact sorted-sample oracle: within one bucket
   width (<= 1/32 relative above the linear range, exact below it). *)
let percentile_oracle =
  Util.qtest ~count:60 "hdr percentile vs sorted oracle"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 2_000_000))
    (fun vals ->
       let h = Obs.Hdr.create () in
       List.iter (Obs.Hdr.record h) vals;
       let s = Obs.Hdr.snapshot h in
       let sorted = Array.of_list (List.sort compare vals) in
       let n = Array.length sorted in
       let exact p =
         let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
         sorted.(max 0 (min (n - 1) (rank - 1)))
       in
       List.for_all
         (fun p ->
            let est = Obs.Hdr.percentile s p in
            let ex = exact p in
            (* the estimate must land in (or adjacent to) the exact
               value's bucket: within one bucket width of it *)
            let i = Obs.Hdr.bucket_index ex in
            let w = Obs.Hdr.bucket_high i - Obs.Hdr.bucket_low i + 1 in
            abs_float (est -. float_of_int ex) <= float_of_int w)
         [ 1.; 25.; 50.; 90.; 99.; 99.9 ]
       && Obs.Hdr.percentile s 0. = float_of_int sorted.(0)
       && Obs.Hdr.percentile s 100. = float_of_int sorted.(n - 1))

let same_histogram o s =
  Util.check_int "merged count" (Obs.Hdr.count o) (Obs.Hdr.count s);
  Util.check_int "merged min" (Obs.Hdr.min_value o) (Obs.Hdr.min_value s);
  Util.check_int "merged max" (Obs.Hdr.max_value o) (Obs.Hdr.max_value s);
  Alcotest.(check (float 1e-6))
    "merged sum" (Obs.Hdr.sum_approx o) (Obs.Hdr.sum_approx s);
  for i = 0 to Obs.Hdr.num_buckets - 1 do
    if Obs.Hdr.bucket_count o i <> Obs.Hdr.bucket_count s i then
      Alcotest.failf "bucket %d: oracle %d, merged %d" i
        (Obs.Hdr.bucket_count o i) (Obs.Hdr.bucket_count s i)
  done;
  List.iter
    (fun p ->
       Alcotest.(check (float 1e-9))
         (Printf.sprintf "merged p%.1f" p)
         (Obs.Hdr.percentile o p) (Obs.Hdr.percentile s p))
    [ 0.; 50.; 90.; 99.; 99.9; 100. ]

(* One histogram per domain, each recorded by its own domain; the merge
   of their snapshots must agree bucket-for-bucket with a single-domain
   oracle fed the same multiset — the merge is lossless, not
   approximate. *)
let cross_domain_merge () =
  let num_domains = 4 and per_domain = 5_000 in
  let values i =
    (* deterministic per-domain stream with a wide dynamic range *)
    List.init per_domain (fun k ->
        let x = (k * 2654435761) + (i * 40503) in
        (x land 0xfffff) lsr (k land 15))
  in
  let domains =
    List.init num_domains (fun i ->
        Domain.spawn (fun () ->
            let h = Obs.Hdr.create () in
            List.iter (Obs.Hdr.record h) (values i);
            h))
  in
  let hdrs = Array.of_list (List.map Domain.join domains) in
  let oracle = Obs.Hdr.create () in
  for i = 0 to num_domains - 1 do
    List.iter (Obs.Hdr.record oracle) (values i)
  done;
  let o = Obs.Hdr.snapshot oracle in
  (* the snapshots merged pairwise, and all at once *)
  let folded =
    Array.fold_left
      (fun acc h -> Obs.Hdr.merge acc (Obs.Hdr.snapshot h))
      (Obs.Hdr.snapshot hdrs.(0))
      (Array.sub hdrs 1 (num_domains - 1))
  in
  List.iter (same_histogram o) [ folded; Obs.Hdr.merged hdrs ]

(* snapshot-level merge is the same sum *)
let snapshot_merge () =
  let a = Obs.Hdr.create () and b = Obs.Hdr.create () in
  List.iter (Obs.Hdr.record a) [ 1; 10; 100 ];
  List.iter (Obs.Hdr.record b) [ 2; 20; 200_000 ];
  let m = Obs.Hdr.merge (Obs.Hdr.snapshot a) (Obs.Hdr.snapshot b) in
  Util.check_int "merged count" 6 (Obs.Hdr.count m);
  Util.check_int "merged min" 1 (Obs.Hdr.min_value m);
  Util.check_int "merged max" 200_000 (Obs.Hdr.max_value m);
  let e = Obs.Hdr.snapshot (Obs.Hdr.create ()) in
  Util.check_int "merge with empty keeps count" 6
    (Obs.Hdr.count (Obs.Hdr.merge m e));
  Util.check_int "merge with empty keeps min" 1
    (Obs.Hdr.min_value (Obs.Hdr.merge e m))

(* The record path must not allocate: one plain increment plus the
   min/max refresh.  Same discipline (and same pin) as the service's
   submit/await path. *)
let record_no_alloc () =
  let h = Obs.Hdr.create () in
  (* warm up: min/max settle *)
  for i = 0 to 999 do Obs.Hdr.record h (i * 37) done;
  let before = Gc.minor_words () in
  for i = 0 to 999 do Obs.Hdr.record h ((i * 37) land 0xffff) done;
  let allocated = Gc.minor_words () -. before in
  if allocated >= 64. then
    Alcotest.failf "record path allocated %.0f minor words" allocated

let suite =
  ( "hdr",
    [ Util.case "bucket geometry" bucket_geometry;
      Util.case "record, bounds and clamps" record_and_bounds;
      Util.case "empty snapshot" empty_snapshot;
      percentile_oracle;
      Util.case "cross-domain merge equals single-domain oracle"
        cross_domain_merge;
      Util.case "snapshot merge" snapshot_merge;
      Util.case "record path allocates nothing" record_no_alloc ] )
