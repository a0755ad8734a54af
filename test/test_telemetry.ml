(* Obs.Timeseries: the sampler domain writes a valid schema-versioned
   JSONL stream, the stall detector fires exactly when progress stops
   while work is queued, the validator rejects malformed streams, and a
   telemetry-armed service/loadgen run produces a file the validator
   accepts end to end. *)

let read_docs path =
  match Obs.Json.of_lines (In_channel.with_open_text path In_channel.input_all)
  with
  | Ok docs -> docs
  | Error e -> Alcotest.failf "%s: parse error: %s" path e

let with_temp f =
  let path = Filename.temp_file "ts_telemetry" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let validate_ok docs =
  match Obs.Timeseries.validate docs with
  | Ok v -> v
  | Error e -> Alcotest.failf "validate: %s" e

let sampler_writes_valid_file () =
  with_temp @@ fun path ->
  let ts = Obs.Timeseries.create ~interval_us:1_000 () in
  let n = Atomic.make 0 in
  Obs.Timeseries.add_source ts ~name:"counter" (fun () ->
      float_of_int (Atomic.fetch_and_add n 1));
  (* nan serializes as null and must still validate *)
  Obs.Timeseries.add_source ts ~name:"sometimes" (fun () ->
      if Atomic.get n < 2 then Float.nan else 1.5);
  Obs.Timeseries.add_meta ts "who" (Obs.Json.String "test");
  Obs.Timeseries.start ~out:path ts;
  Unix.sleepf 0.02;
  Obs.Timeseries.stop ts;
  let docs = read_docs path in
  Util.check_bool "looks_like telemetry" true (Obs.Timeseries.looks_like docs);
  let v = validate_ok docs in
  Util.check_int "two series" 2 (Array.length v.v_series);
  Util.check_int "validator samples = reported samples"
    (Obs.Timeseries.samples ts) (Array.length v.v_samples);
  Util.check_bool "sampled at least twice" true (Array.length v.v_samples >= 2);
  Util.check_bool "null reads back as None" true
    ((snd v.v_samples.(0)).(1) = None);
  Util.check_int "no stalls" 0 v.v_stalls;
  (* header carries the meta and the interval *)
  match docs with
  | header :: _ ->
    Util.check_bool "meta preserved" true
      (Obs.Json.member "meta" header
       |> Option.map (Obs.Json.member "who")
       = Some (Some (Obs.Json.String "test")))
  | [] -> Alcotest.fail "empty file"

let stall_fires () =
  with_temp @@ fun path ->
  let ts = Obs.Timeseries.create ~interval_us:1_000 () in
  Obs.Timeseries.add_source ts ~name:"depth" (fun () -> 3.);
  (* progress never moves while depth stays positive: a stall *)
  Obs.Timeseries.add_stall_rule ~after:1 ts ~name:"s0"
    ~depth:(fun () -> 3.)
    ~progress:(fun () -> 7.);
  Obs.Timeseries.start ~out:path ts;
  Unix.sleepf 0.02;
  Obs.Timeseries.stop ts;
  let v = validate_ok (read_docs path) in
  Util.check_bool "stall detected" true (Obs.Timeseries.stalls ts > 0);
  Util.check_int "validator agrees on stall count"
    (Obs.Timeseries.stalls ts) v.v_stalls;
  Util.check_bool "stall events in stream" true (v.v_events > 0)

let no_stall_when_progressing () =
  with_temp @@ fun path ->
  let ts = Obs.Timeseries.create ~interval_us:1_000 () in
  let served = Atomic.make 0 in
  Obs.Timeseries.add_source ts ~name:"depth" (fun () -> 5.);
  Obs.Timeseries.add_stall_rule ~after:1 ts ~name:"s0"
    ~depth:(fun () -> 5.)
    ~progress:(fun () -> float_of_int (Atomic.fetch_and_add served 1));
  Obs.Timeseries.start ~out:path ts;
  Unix.sleepf 0.02;
  Obs.Timeseries.stop ts;
  Util.check_int "no stall while progress moves" 0 (Obs.Timeseries.stalls ts);
  Util.check_int "no events" 0 (validate_ok (read_docs path)).v_events

let no_stall_when_idle () =
  with_temp @@ fun path ->
  let ts = Obs.Timeseries.create ~interval_us:1_000 () in
  Obs.Timeseries.add_source ts ~name:"depth" (fun () -> 0.);
  (* flat progress is fine when the queue is empty *)
  Obs.Timeseries.add_stall_rule ~after:1 ts ~name:"s0"
    ~depth:(fun () -> 0.)
    ~progress:(fun () -> 7.);
  Obs.Timeseries.start ~out:path ts;
  Unix.sleepf 0.02;
  Obs.Timeseries.stop ts;
  Util.check_int "idle queue never stalls" 0 (Obs.Timeseries.stalls ts)

let validator_rejects () =
  let open Obs.Json in
  let header =
    Obj
      [ ("schema_version", Int Obs.Timeseries.schema_version);
        ("kind", String "header");
        ("interval_us", Int 1000);
        ("series", List [ String "a"; String "b" ]);
        ("meta", Obj []) ]
  in
  let sample t vs =
    Obj
      [ ("kind", String "sample"); ("t_us", Float t);
        ("v", List (List.map (fun v -> Float v) vs)) ]
  in
  let end_marker s st =
    Obj [ ("kind", String "end"); ("samples", Int s); ("stalls", Int st) ]
  in
  let rejects name docs =
    match Obs.Timeseries.validate docs with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  rejects "empty stream" [];
  rejects "missing header" [ sample 1. [ 1.; 2. ] ];
  rejects "wrong schema version"
    [ Obj
        [ ("schema_version", Int 999); ("kind", String "header");
          ("series", List []) ] ];
  rejects "sample width mismatch" [ header; sample 1. [ 1. ] ];
  rejects "non-numeric sample value"
    [ header;
      Obj
        [ ("kind", String "sample"); ("t_us", Float 1.);
          ("v", List [ String "x"; Float 2. ]) ] ];
  rejects "time goes backwards"
    [ header; sample 5. [ 1.; 2. ]; sample 4. [ 1.; 2. ] ];
  rejects "document after end marker"
    [ header; sample 1. [ 1.; 2. ]; end_marker 1 0; sample 2. [ 1.; 2. ] ];
  rejects "end marker sample count wrong"
    [ header; sample 1. [ 1.; 2. ]; end_marker 7 0 ];
  rejects "unknown kind" [ header; Obj [ ("kind", String "banana") ] ];
  (* and the happy path still passes *)
  let v =
    validate_ok
      [ header; sample 1. [ 1.; 2. ]; sample 2. [ 3.; 4. ]; end_marker 2 0 ]
  in
  Util.check_bool "happy path walked back" true
    (v.v_series = [| "a"; "b" |]
     && v.v_samples = [| (1., [| Some 1.; Some 2. |]);
                         (2., [| Some 3.; Some 4. |]) |]
     && v.v_ended)

let loadgen_end_to_end () =
  with_temp @@ fun path ->
  let open Svc.Loadgen in
  let r =
    run Timestamp.Registry.efr
      { default with
        mode = Service { shards = 2; batch_max = 16 };
        arrival = Open { rate = 4000. };
        clients = 2;
        requests_per_client = 60;
        pipeline = 4;
        n = 2;
        telemetry =
          Some { tel_out = path; tel_append = false; tel_interval_us = 2_000 }
      }
  in
  Util.check_int "all requests completed" 120 r.lg_total;
  Util.check_bool "checker holds" true (r.lg_violation = None);
  Util.check_bool "percentiles ordered" true
    (r.lg_p50_us <= r.lg_p99_us
     && r.lg_p99_us <= r.lg_p999_us
     && r.lg_p999_us <= r.lg_max_us);
  let docs = read_docs path in
  Util.check_bool "telemetry file looks like telemetry" true
    (Obs.Timeseries.looks_like docs);
  let v = validate_ok docs in
  Util.check_int "report samples = file samples" r.lg_samples
    (Array.length v.v_samples);
  Util.check_bool "sampled at least once" true (Array.length v.v_samples >= 1);
  (* the service contributed its per-shard series and the generator its
     latency series *)
  match docs with
  | header :: _ ->
    let series =
      match Obs.Json.member "series" header with
      | Some (Obs.Json.List l) ->
        List.filter_map
          (function Obs.Json.String s -> Some s | _ -> None)
          l
      | _ -> []
    in
    List.iter
      (fun s ->
         Util.check_bool (Printf.sprintf "series %s present" s) true
           (List.mem s series))
      [ "s0.depth"; "s1.served"; "s0.batch_p50"; "svc.pool";
        "lat.p50_us"; "lat.p99_us"; "lat.p999_us"; "lg.completed" ]
  | [] -> Alcotest.fail "empty telemetry file"

let misuse () =
  let ts = Obs.Timeseries.create () in
  Util.check_bool "interval must be positive" true
    (match Obs.Timeseries.create ~interval_us:0 () with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Util.check_bool "after must be positive" true
    (match
       Obs.Timeseries.add_stall_rule ~after:0 ts ~name:"x"
         ~depth:(fun () -> 0.)
         ~progress:(fun () -> 0.)
     with
     | () -> false
     | exception Invalid_argument _ -> true);
  with_temp @@ fun path ->
  Obs.Timeseries.start ~out:path ts;
  Util.check_bool "add_source after start rejected" true
    (match Obs.Timeseries.add_source ts ~name:"late" (fun () -> 0.) with
     | () -> false
     | exception Invalid_argument _ -> true);
  Obs.Timeseries.stop ts;
  (* stop is idempotent *)
  Obs.Timeseries.stop ts

let suite =
  ( "telemetry",
    [ Util.case "sampler writes a valid stream" sampler_writes_valid_file;
      Util.case "stall detector fires" stall_fires;
      Util.case "no stall while progressing" no_stall_when_progressing;
      Util.case "no stall when idle" no_stall_when_idle;
      Util.case "validator rejects malformed streams" validator_rejects;
      Util.slow_case "telemetry-armed loadgen end to end" loadgen_end_to_end;
      Util.case "misuse is rejected" misuse ] )
