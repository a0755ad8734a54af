(* Command-line front end: run timestamp workloads, the lower-bound
   adversaries, the Section-6 claim checks, figure rendering, multicore
   stress and the logical-clock demos. *)

open Cmdliner

let impl_names = List.map Timestamp.Registry.name Timestamp.Registry.all

let impl_conv =
  let parse s =
    match Timestamp.Registry.find_exn s with
    | impl -> Ok impl
    | exception Failure msg -> Error (`Msg msg)
  in
  let print ppf impl =
    Format.pp_print_string ppf (Timestamp.Registry.name impl)
  in
  Arg.conv (parse, print)

let impl_arg =
  Arg.(
    value
    & opt impl_conv Timestamp.Registry.lamport
    & info [ "impl"; "i" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Timestamp implementation (one of %s)."
             (String.concat ", " impl_names)))

(* A count below its least value is refused by cmdliner's usage error
   (exit 124) before any subcommand runs. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= lo -> Ok k
    | _ ->
      Error
        (`Msg
           (Printf.sprintf "invalid value '%s', expected an integer >= %d" s
              lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_at_least 1

let non_neg_int = int_at_least 0

let n_arg =
  Arg.(
    value & opt pos_int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Random seed.")

let calls_arg =
  Arg.(
    value & opt pos_int 2
    & info [ "calls"; "c" ] ~docv:"CALLS"
        ~doc:"getTS calls per process (long-lived objects only).")

(* Every subcommand is made here.  Its term evaluates to its body, which
   returns the exit code to the one [Cmd.eval'] in [main]; a refusal
   ([Invalid_argument], [Failure], [Svc.Client.Error], or a [Sys_error]
   from a file it names) that escapes the body is printed as
   [ts_cli: NAME: MESSAGE] and exits 1. *)
let subcommand ?group name ~doc term =
  let label = match group with Some g -> g ^ " " ^ name | None -> name in
  let refusing body =
    try body () with
    | Invalid_argument msg | Failure msg | Svc.Client.Error msg
    | Sys_error msg ->
      Printf.eprintf "ts_cli: %s: %s\n" label msg;
      1
  in
  Cmd.v (Cmd.info name ~doc) Term.(const refusing $ term)

(* ------------------------------------------------------------------ *)
(* Instrumentation plumbing.  [--metrics-out] / [--trace-out] attach the
   Obs sinks around a whole command; with neither flag (and no [~force])
   the hooks stay disarmed and the command runs uninstrumented. *)

type obs_out = {
  metrics_out : string option;
  trace_out : string option;
  append : bool;
}

let obs_out_term =
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write run metrics as JSONL (one metric per line) to $(docv).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event file (load it in chrome://tracing \
             or Perfetto) to $(docv).")
  in
  let append =
    Arg.(
      value & flag
      & info [ "append" ]
          ~doc:
            "Append to the $(b,--metrics-out), $(b,--trace-out) and \
             $(b,--telemetry-out) files instead of truncating them (the \
             default is truncate).")
  in
  Term.(
    const (fun metrics_out trace_out append ->
        { metrics_out; trace_out; append })
    $ metrics $ trace $ append)

type obs_ctx = {
  registry : Obs.Metric.registry;
  collector : Obs.Collector.t;
  trace : Obs.Trace.t;
}

(* Runs [f] with the sinks installed (collector + metrics registry + trace),
   then flushes the sidecar files and calls [after] for command-specific
   reporting.  [f] receives [Some ctx] to record extra metrics of its own. *)
let with_obs ?(force = false) ?(after = fun _ -> ()) out f =
  match force, out.metrics_out, out.trace_out with
  | false, None, None -> f None
  | _ ->
    let registry = Obs.Metric.registry ~name:"ts_cli" () in
    let collector = Obs.Collector.create () in
    let trace = Obs.Trace.create ~process_name:"ts_cli" () in
    let ctx = { registry; collector; trace } in
    let hooks =
      Obs.Hooks.combine
        [ Obs.Collector.hooks collector;
          Obs.Hooks.metrics_hooks registry;
          Obs.Trace.hooks trace ]
    in
    let result = Obs.Hooks.with_hooks hooks (fun () -> f (Some ctx)) in
    Obs.Collector.fill_registry collector registry;
    Option.iter
      (Obs.Metric.write_jsonl_file ~append:out.append registry)
      out.metrics_out;
    Option.iter (Obs.Trace.write_file ~append:out.append trace) out.trace_out;
    after ctx;
    result

let validate_json_file path =
  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match read_all path with
  | exception Sys_error e ->
    Printf.eprintf "%s: %s\n" path e;
    false
  | contents ->
    if Filename.check_suffix path ".jsonl" then (
      match Obs.Json.of_lines contents with
      | Ok docs when Obs.Timeseries.looks_like docs -> (
          (* telemetry time series: check the schema, not just the JSON *)
          match Obs.Timeseries.validate docs with
          | Ok v ->
            Printf.printf
              "%s: OK (telemetry schema %d: %d series, %d samples, %d \
               events, %d stalls)\n"
              path Obs.Timeseries.schema_version (Array.length v.v_series)
              (Array.length v.v_samples) v.v_events v.v_stalls;
            true
          | Error e ->
            Printf.eprintf "%s: INVALID telemetry: %s\n" path e;
            false)
      | Ok docs ->
        Printf.printf "%s: OK (%d JSONL documents)\n" path (List.length docs);
        true
      | Error e ->
        Printf.eprintf "%s: INVALID: %s\n" path e;
        false)
    else
      match Obs.Json.of_string contents with
      | Ok _ ->
        Printf.printf "%s: OK (valid JSON)\n" path;
        true
      | Error e ->
        Printf.eprintf "%s: INVALID: %s\n" path e;
        false

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-18s %-11s %s\n" "name" "kind" "registers (n=16, 64, 256)";
    Printf.printf "%s\n" (String.make 60 '-');
    List.iter
      (fun impl ->
         let regs n = Timestamp.Registry.num_registers impl ~n in
         Printf.printf "%-18s %-11s %d, %d, %d\n"
           (Timestamp.Registry.name impl)
           (match Timestamp.Registry.kind impl with
            | `One_shot -> "one-shot"
            | `Long_lived -> "long-lived")
           (regs 16) (regs 64) (regs 256))
      Timestamp.Registry.all;
    0
  in
  subcommand "list" ~doc:"List the available timestamp implementations."
    (Term.const run)

let run_cmd =
  let run impl n seed calls out () =
    with_obs out @@ fun _ ->
    let (Timestamp.Registry.Impl (module T)) = impl in
    let module H = Timestamp.Harness.Make (T) in
    let calls = match T.kind with `One_shot -> 1 | `Long_lived -> calls in
    let cfg = H.run_random ~invoke_prob:0.05 ~calls ~n ~seed () in
    Printf.printf "implementation: %s   n=%d seed=%d\n" T.name n seed;
    List.iter
      (fun ((op : Shm.History.op), t) ->
         Printf.printf "  p%d.%d -> %s\n" op.pid op.call
           (Format.asprintf "%a" T.pp_ts t))
      (Shm.Sim.results cfg);
    let rc =
      match H.check cfg with
      | Ok pairs ->
        Printf.printf "compare-consistency: OK (%d ordered pairs)\n" pairs;
        0
      | Error v ->
        Printf.printf "VIOLATION: %s\n"
          (Format.asprintf "%a" Timestamp.Checker.pp_violation v);
        1
    in
    let written, touched = H.space_used cfg in
    Printf.printf "registers: written=%d touched=%d provisioned=%d\n" written
      touched (T.num_registers ~n);
    rc
  in
  subcommand "run"
    ~doc:"Run a random workload on an implementation and check it."
    Term.(const run $ impl_arg $ n_arg $ seed_arg $ calls_arg $ obs_out_term)

let adversary_oneshot_cmd =
  let run impl n grid verbose () =
    let (Timestamp.Registry.Impl (module T)) = impl in
    let module H = Timestamp.Harness.Make (T) in
    match
      Covering.Oneshot_adversary.run ?grid_width:grid ~fuel:5_000_000
        ~supplier:(H.supplier ~n) ~cfg:(H.create ~n) ()
    with
    | Error e -> failwith e
    | Ok o ->
      Printf.printf
        "%s n=%d: covered %d registers simultaneously (grid=%d, bound=%.1f, \
         stop: %s)\n"
        T.name n o.j_last
        (match grid with Some g -> g | None -> Covering.Bounds.grid_width n)
        (Covering.Bounds.oneshot_lower n)
        (Format.asprintf "%a" Covering.Oneshot_adversary.pp_stop o.stop);
      List.iter
        (fun r ->
           Printf.printf "  %s\n"
             (Format.asprintf "%a" Covering.Oneshot_adversary.pp_round r);
           if verbose then
             print_string (Covering.Grid.render_sig ~l:r.l r.sig_after))
        o.rounds;
      0
  in
  let grid =
    Arg.(
      value
      & opt (some int) None
      & info [ "grid" ] ~docv:"WIDTH"
          ~doc:"Grid width l0 (default: floor(sqrt(2n)) as in the paper).")
  in
  let verbose =
    Arg.(value & flag & info [ "grids"; "v" ] ~doc:"Render a grid per round.")
  in
  subcommand ~group:"adversary" "one-shot"
    ~doc:"Run the Theorem 1.2 covering construction (Section 4)."
    Term.(const run $ impl_arg $ n_arg $ grid $ verbose)

let adversary_longlived_cmd =
  let run impl n k () =
    let (Timestamp.Registry.Impl (module T)) = impl in
    let module H = Timestamp.Harness.Make (T) in
    let k = match k with Some k -> k | None -> n / 2 in
    match
      Covering.Longlived_adversary.run ~fuel:1_000_000 ~supplier:(H.supplier ~n)
        ~cfg:(H.create ~n) ~k ()
    with
    | Error e -> failwith e
    | Ok o ->
      Printf.printf
        "%s n=%d: reached a (3,%d)-configuration covering %d registers \
         (>= %d required; floor(n/6) = %d) via a %d-action schedule\n"
        T.name n k o.covered ((k + 2) / 3)
        (Covering.Bounds.longlived_lower n)
        o.schedule_length;
      print_string (Covering.Grid.render_sig o.signature);
      0
  in
  let k_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "k" ] ~docv:"K"
          ~doc:"Target (3,k)-configuration (default: floor(n/2)).")
  in
  subcommand ~group:"adversary" "long-lived"
    ~doc:"Run the Theorem 1.1 covering construction (Section 3)."
    Term.(const run $ impl_arg $ n_arg $ k_arg)

let adversary_cmd =
  Cmd.group
    (Cmd.info "adversary"
       ~doc:"Executable lower-bound constructions (covering arguments).")
    [ adversary_oneshot_cmd; adversary_longlived_cmd ]

let figure_cmd =
  let run which n () =
    let module H = Timestamp.Harness.Make (Timestamp.Sqrt.One_shot) in
    match
      Covering.Oneshot_adversary.run ~fuel:5_000_000 ~supplier:(H.supplier ~n)
        ~cfg:(H.create ~n) ()
    with
    | Error e -> failwith e
    | Ok o -> (
        let l = Covering.Bounds.grid_width n in
        match which, o.rounds with
        | 1, first :: _ ->
          Printf.printf
            "Figure 1: a column reaches the diagonal (sqrt algorithm, n=%d)\n"
            n;
          print_string (Covering.Grid.render_sig ~l first.sig_after);
          0
        | 2, rounds when rounds <> [] ->
          let last = List.nth rounds (List.length rounds - 1) in
          Printf.printf
            "Figure 2: configuration after the last round (n=%d, j=%d, l=%d)\n"
            n last.j last.l;
          print_string (Covering.Grid.render_sig ~l:last.l last.sig_after);
          0
        | _ -> failwith "figure must be 1 or 2, and the run must progress")
  in
  let which =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"FIGURE" ~doc:"Which figure to render (1 or 2).")
  in
  subcommand "figure"
    ~doc:"Render the paper's Figure 1 / Figure 2 from a real run."
    Term.(const run $ which $ n_arg)

let claims_cmd =
  let run n m_calls seed () =
    let total_calls = match m_calls with Some m -> m | None -> n in
    let calls_per_proc = max 1 (total_calls / n) in
    let stats =
      Timestamp.Sqrt_claims.run_random ~invoke_prob:0.05 ~n ~seed ~total_calls
        ~calls_per_proc ()
    in
    Printf.printf "%s\n" (Format.asprintf "%a" Timestamp.Sqrt_claims.pp_stats stats);
    List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) stats.violations;
    if stats.violations = [] then 0 else 1
  in
  let m_arg =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "total-calls"; "M" ] ~docv:"M"
          ~doc:"Total getTS calls (default: n, the one-shot case).")
  in
  subcommand "claims"
    ~doc:"Check the Section-6 claims on a random execution of Algorithm 4."
    Term.(const run $ n_arg $ m_arg $ seed_arg)

let stress_cmd =
  let run impl n calls out () =
    with_obs out @@ fun _ ->
    let (Timestamp.Registry.Impl (module T)) = impl in
    let cfg = Svc.Loadgen.stress impl ~n ~calls in
    match Svc.Loadgen.run impl cfg with
    | { lg_violation = Some e; _ } ->
      Printf.eprintf "VIOLATION: %s\n" e;
      1
    | { lg_violation = None; lg_hb_pairs = pairs; lg_total = m; _ } ->
      (* every pair of calls is either ordered or concurrent *)
      Printf.printf
        "%s: %d domains x %d calls OK (%d ordered pairs checked, %d \
         concurrent)\n"
        T.name n cfg.requests_per_client pairs ((m * (m - 1) / 2) - pairs);
      0
  in
  subcommand "stress"
    ~doc:"Run the implementation on real domains and check it."
    Term.(const run $ impl_arg $ n_arg $ calls_arg $ obs_out_term)

(* Shared between [explore] and [verify-svc]: the stats summary clause
   (pinned byte-for-byte by test/cli.t) and the per-domain breakdown. *)
let stats_clause ~(stats : Shm.Explore.stats) ~domains =
  Printf.sprintf
    "%d configurations expanded, %d dedup hits, %d sleep-set skips, %d \
     truncated paths%s%s"
    stats.expanded stats.dedup_hits stats.sleep_skips stats.truncated_paths
    (if stats.symmetric then
       Printf.sprintf ", %d symmetry merges" stats.canon_hits
     else "")
    (if domains > 1 then Printf.sprintf ", %d domains" domains else "")

let print_per_domain ~(stats : Shm.Explore.stats) =
  Printf.printf "  %.3fs wall, %.0f configurations expanded/s\n" stats.seconds
    (float_of_int stats.expanded /. Float.max stats.seconds 1e-9);
  Array.iteri
    (fun i (d : Shm.Explore.domain_stats) ->
       Printf.printf
         "  domain %d: %d branches, %d expanded, %d dedup hits, %d \
          sleep-set skips%s%s, %.3fs busy\n"
         i d.d_branches d.d_expanded d.d_dedup_hits d.d_sleep_skips
         (if stats.symmetric then
            Printf.sprintf ", %d symmetry merges" d.d_canon_hits
          else "")
         (if d.d_steals > 0 then Printf.sprintf ", %d steals" d.d_steals
          else "")
         d.d_seconds)
    stats.per_domain

(* Shared between [fuzz --replay] and [verify-svc --replay]: loads the
   repro at [path], runs it through [replay] and prints the verdict;
   the exit code is 0 when the violation reproduces, 3 when it does not
   (a stale repro) and 2 when the file cannot be loaded or replayed. *)
let replay_file replay path =
  match Fuzz.Repro.load path with
  | Error e ->
    Printf.eprintf "%s: %s\n" path e;
    2
  | Ok repro -> (
      match replay repro with
      | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        2
      | Ok (Some violation) ->
        Printf.printf "repro %s: VIOLATION reproduced (%s, %d actions)\n" path
          repro.Fuzz.Repro.impl
          (List.length repro.schedule);
        Printf.printf "  %s\n" violation;
        0
      | Ok None ->
        Printf.printf "repro %s: no violation (stale repro?)\n" path;
        3)

(* The exploration flags [explore] and [verify-svc] share; only the depth
   bound's default differs between them. *)
type explore_opts = {
  max_paths : int;
  max_steps : int;
  domains : int;
  dedup : bool;
  reduction : bool;
  symmetry : bool;
}

let explore_opts_term ~max_steps_default =
  let max_paths =
    Arg.(
      value & opt pos_int 1_000_000
      & info [ "max-paths" ] ~docv:"N" ~doc:"Schedule budget.")
  in
  let max_steps =
    Arg.(
      value & opt pos_int max_steps_default
      & info [ "max-steps" ] ~docv:"N" ~doc:"Per-schedule depth bound.")
  in
  let domains =
    Arg.(
      value & opt pos_int 1
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains: 1 explores depth-first on the calling domain; \
             more expand a breadth-first frontier and let the domains \
             steal its nodes from each other.")
  in
  let no_dedup =
    Arg.(
      value & flag
      & info [ "no-dedup" ]
          ~doc:"Disable state deduplication (re-expand revisited states).")
  in
  let no_reduction =
    Arg.(
      value & flag
      & info [ "no-reduction" ]
          ~doc:
            "Disable the independence (sleep-set) reduction; explore every \
             interleaving of independent actions.")
  in
  let no_symmetry =
    Arg.(
      value & flag
      & info [ "no-symmetry" ]
          ~doc:
            "Disable the process-symmetry quotient (deduplicate on raw \
             fingerprints even when processes run identical programs).")
  in
  Term.(
    const
      (fun max_paths max_steps domains no_dedup no_reduction no_symmetry ->
         { max_paths;
           max_steps;
           domains;
           dedup = not no_dedup;
           reduction = not no_reduction;
           symmetry = not no_symmetry })
    $ max_paths $ max_steps $ domains $ no_dedup $ no_reduction
    $ no_symmetry)

let explore_cmd =
  let run impl n calls (o : explore_opts) out () =
    with_obs out @@ fun ctx ->
    let (Timestamp.Registry.Impl (module T)) = impl in
    let module H = Timestamp.Harness.Make (T) in
    let supplier = H.supplier ~n and cfg = H.create ~n in
    let calls = match T.kind with `One_shot -> 1 | `Long_lived -> calls in
    let domains = o.domains in
    match
      Shm.Explore.explore ~max_steps:o.max_steps ~max_paths:o.max_paths
        ~dedup:o.dedup ~reduction:o.reduction ~symmetry:o.symmetry ~domains
        ~supplier
        ~calls_per_proc:(Array.make n calls)
        ~leaf_check:(fun cfg ->
            Result.is_ok (Timestamp.Checker.check_sim (module T) cfg))
        cfg
    with
    | Shm.Explore.Ok stats ->
      Printf.printf "%s n=%d calls=%d: %s over %d complete schedules (%s)\n"
        T.name n calls
        (if stats.exhaustive then "EXHAUSTIVELY VERIFIED" else "verified")
        stats.paths
        (stats_clause ~stats ~domains);
      if domains > 1 then print_per_domain ~stats;
      Option.iter
        (fun ctx ->
           let g name v = Obs.Metric.set (Obs.Metric.gauge ctx.registry name) v in
           g "explore.seconds" stats.seconds;
           g "explore.expanded_per_sec"
             (float_of_int stats.expanded /. Float.max stats.seconds 1e-9);
           g "explore.dedup_hit_rate"
             (float_of_int stats.dedup_hits
              /. float_of_int (max 1 stats.configurations));
           g "explore.sleep_skips" (float_of_int stats.sleep_skips);
           g "explore.canon_hits" (float_of_int stats.canon_hits);
           g "explore.symmetric" (if stats.symmetric then 1. else 0.);
           g "explore.domains" (float_of_int domains))
        ctx;
      0
    | Shm.Explore.Counterexample { schedule; _ } ->
      Printf.printf "%s n=%d: COUNTEREXAMPLE, schedule of %d actions:\n"
        T.name n (List.length schedule);
      print_string (Shm.Trace.render ~supplier cfg schedule);
      1
  in
  subcommand "explore"
    ~doc:
      "Exhaustively enumerate every schedule of a small instance and check \
       the specification on each."
    Term.(
      const run $ impl_arg $ n_arg $ calls_arg
      $ explore_opts_term ~max_steps_default:300 $ obs_out_term)

let verify_svc_cmd =
  let run models n (o : explore_opts) mutant replay repro_out () =
    match replay with
    | Some path -> replay_file Svc.Model.replay_repro path
    | None ->
      let models =
        match models with [] -> Svc.Model.all | ms -> ms
      in
      let domains = o.domains in
      let verify_one model =
        let mname = Svc.Model.name model in
        let tag =
          match mutant with
          | Some m -> Printf.sprintf "%s mutant %s" mname m
          | None -> mname
        in
        match
          Svc.Model.verify ~max_steps:o.max_steps ~max_paths:o.max_paths
            ~dedup:o.dedup ~reduction:o.reduction ~symmetry:o.symmetry
            ~domains ?mutant model ~n
        with
        | Error e ->
          Printf.eprintf "model %s: %s\n" tag e;
          2
        | Ok (Shm.Explore.Ok stats) ->
          let sys =
            (* verify succeeded, so sys is well-formed *)
            Result.get_ok (Svc.Model.sys ?mutant model ~n)
          in
          Printf.printf "model %s n=%d (%d procs): %s over %d complete \
                         schedules (%s)\n"
            tag n sys.Svc.Model.procs
            (if stats.exhaustive then "EXHAUSTIVELY VERIFIED"
             else "verified")
            stats.paths
            (stats_clause ~stats ~domains);
          if domains > 1 then print_per_domain ~stats;
          0
        | Ok (Shm.Explore.Counterexample { schedule; at_leaf; _ }) ->
          Printf.printf
            "model %s n=%d: COUNTEREXAMPLE (%s), schedule of %d actions\n"
            tag n
            (if at_leaf then "leaf check" else "invariant")
            (List.length schedule);
          let schedule, why =
            match Svc.Model.shrink ?mutant model ~n schedule with
            | Some (shrunk, why) ->
              Printf.printf "  shrunk: %d -> %d actions\n"
                (List.length schedule) (List.length shrunk);
              (shrunk, why)
            | None -> (schedule, "violation did not replay (model bug?)")
          in
          Printf.printf "  %s\n" why;
          List.iter
            (fun (a : Shm.Schedule.action) ->
               match a with
               | Shm.Schedule.Invoke p ->
                 Printf.printf "    invoke %d\n" p
               | Shm.Schedule.Step p -> Printf.printf "    step %d\n" p
               | Shm.Schedule.Crash p -> Printf.printf "    crash %d\n" p)
            schedule;
          Option.iter
            (fun path ->
               Fuzz.Repro.save (Svc.Model.to_repro ?mutant model ~n schedule)
                 path;
               Printf.printf "  repro written to %s\n" path)
            repro_out;
          1
      in
      List.fold_left (fun acc m -> max acc (verify_one m)) 0 models
  in
  let model_conv =
    let parse s =
      match Svc.Model.of_name s with
      | Ok m -> Ok m
      | Error e -> Error (`Msg e)
    in
    let print ppf m = Format.pp_print_string ppf (Svc.Model.name m) in
    Arg.conv (parse, print)
  in
  let models =
    Arg.(
      value
      & opt_all model_conv []
      & info [ "model"; "m" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Model to verify (one of %s); repeatable.  Default: all of \
                them."
               (String.concat ", "
                  (List.map Svc.Model.name Svc.Model.all))))
  in
  let n_arg =
    Arg.(
      value & opt pos_int 2
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Clients/producers in the model instance (fixed roles — \
             consumer, workers, stopper — are added on top).")
  in
  let mutant =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Plant a deliberately broken model variant (one of %s); used \
                to calibrate the invariants — the explorer must kill it."
               (String.concat ", "
                  (List.map
                     (fun (m : Svc.Model.mutant) -> m.m_name)
                     Svc.Model.mutants))))
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a model repro document (test/repro_corpus/model-*.json) \
             instead of exploring; exit 0 iff the violation still \
             reproduces.")
  in
  let repro_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-out" ] ~docv:"FILE"
          ~doc:"Write the (shrunk) counterexample schedule as a repro JSON.")
  in
  subcommand "verify-svc"
    ~doc:
      "Model-check the serving layer: exhaustively explore Shm models of the \
       service's MPSC push/drain, request-record pool, chunked tick \
       reservation, graceful-stop handshake and park/wake handshake, \
       checking the protocol invariants on every reachable configuration."
    Term.(
      const run $ models $ n_arg $ explore_opts_term ~max_steps_default:400
      $ mutant $ replay $ repro_out)

let obs_cmd =
  let run impl n seed calls validate out () =
    if validate <> [] then
      if List.for_all validate_json_file validate then 0 else 1
    else begin
      let (Timestamp.Registry.Impl (module T)) = impl in
      let module H = Timestamp.Harness.Make (T) in
      let calls = match T.kind with `One_shot -> 1 | `Long_lived -> calls in
      with_obs ~force:true
        ~after:(fun ctx ->
            Printf.printf "\nregister heatmap:\n";
            Format.printf "%a" Obs.Collector.pp_heatmap ctx.collector;
            Printf.printf "\nmetrics:\n";
            Format.printf "%a@?" Obs.Metric.pp_table ctx.registry)
        out
        (fun _ ->
           let cfg = H.run_random ~invoke_prob:0.05 ~calls ~n ~seed () in
           Printf.printf "implementation: %s   n=%d seed=%d calls=%d\n" T.name
             n seed calls;
           match H.check cfg with
           | Ok pairs ->
             Printf.printf "compare-consistency: OK (%d ordered pairs)\n"
               pairs;
             0
           | Error v ->
             Printf.printf "VIOLATION: %s\n"
               (Format.asprintf "%a" Timestamp.Checker.pp_violation v);
             1)
    end
  in
  let validate =
    Arg.(
      value
      & opt_all string []
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Instead of running a workload, parse $(docv) as JSON (or JSONL \
             when it ends in .jsonl) and fail on any syntax error.  \
             Repeatable; used by ci.sh to check the emitted sidecars.")
  in
  subcommand "obs"
    ~doc:
      "Run an instrumented workload and print the register heatmap and \
       metrics table (write sidecars with --metrics-out/--trace-out)."
    Term.(
      const run $ impl_arg $ n_arg $ seed_arg $ calls_arg $ validate
      $ obs_out_term)

let fuzz_cmd =
  let run impl mutant n seed calls iters crashes burst no_fallback repro_out
      replay out () =
    with_obs out @@ fun ctx ->
    match replay with
    | Some path -> replay_file Fuzz.Harness.replay_repro path
    | None ->
      let impls, what =
        match mutant, impl with
        | Some m, _ ->
          ([ m ], "mutant " ^ Timestamp.Registry.name m)
        | None, Some i ->
          ([ i ], Timestamp.Registry.name i)
        | None, None ->
          ( Timestamp.Registry.all,
            Printf.sprintf "differential over %d implementations"
              (List.length Timestamp.Registry.all) )
      in
      Printf.printf "fuzz seed=%d n=%d calls=%d iters=%d: %s\n" seed n calls
        iters what;
      (match
         Fuzz.Harness.run ~iters ~n ~calls ~max_crashes:crashes ~burst
           ~explore_fallback:(not no_fallback) ~seed ~impls ()
       with
       | Fuzz.Harness.Passed stats ->
         if stats.exhaustive then
           Printf.printf
             "fuzz: OK — state space small, exhaustively explored instead \
              (every schedule checked)\n"
         else
           Printf.printf
             "fuzz: OK — %d schedules (%d actions), %d hb pairs checked, 0 \
              violations\n"
             stats.iterations stats.actions stats.hb_pairs;
         Option.iter
           (fun ctx ->
              let g name v =
                Obs.Metric.set (Obs.Metric.gauge ctx.registry name) v
              in
              g "fuzz.hb_pairs" (float_of_int stats.hb_pairs);
              g "fuzz.actions" (float_of_int stats.actions))
           ctx;
         0
       | Fuzz.Harness.Failed f ->
         Printf.printf "fuzz: VIOLATION (%s, iteration %d)\n" f.impl
           f.iteration;
         Printf.printf "  %s\n" f.violation;
         Printf.printf "  shrunk: %d -> %d actions, n=%d (%d accepted / %d \
                        attempted reductions)\n"
           f.original_len
           (List.length f.repro.schedule)
           f.repro.n f.shrink_accepted f.shrink_attempts;
         Printf.printf "  repro (OCaml): %s\n" (Fuzz.Repro.to_ocaml f.repro);
         Option.iter
           (fun path ->
              Fuzz.Repro.save f.repro path;
              Printf.printf "  repro written to %s\n" path)
           repro_out;
         1)
  in
  let impl_opt =
    Arg.(
      value
      & opt (some impl_conv) None
      & info [ "impl"; "i" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Fuzz a single implementation (one of %s).  Default: all of \
                them, differentially."
               (String.concat ", " impl_names)))
  in
  let mutant_conv =
    let parse s =
      match Fuzz.Mutant.find s with
      | Some impl -> Ok impl
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown mutant %S (expected one of %s)" s
                (String.concat ", " Fuzz.Mutant.names)))
    in
    let print ppf impl =
      Format.pp_print_string ppf (Timestamp.Registry.name impl)
    in
    Arg.conv (parse, print)
  in
  let mutant =
    Arg.(
      value
      & opt (some mutant_conv) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Fuzz a deliberately broken implementation (one of %s); used \
                to calibrate the harness — the fuzzer must catch it."
               (String.concat ", " Fuzz.Mutant.names)))
  in
  let iters =
    Arg.(
      value & opt pos_int 1000
      & info [ "iters" ] ~docv:"N" ~doc:"Random schedules to generate.")
  in
  let crashes =
    Arg.(
      value & opt non_neg_int 0
      & info [ "crashes" ] ~docv:"K"
          ~doc:"Inject up to $(docv) crash-stop failures per schedule.")
  in
  let burst =
    Arg.(
      value & opt pos_int 4
      & info [ "burst" ] ~docv:"B"
          ~doc:
            "Contention bursts: a scheduling decision runs one process for \
             up to $(docv) consecutive steps.")
  in
  let no_fallback =
    Arg.(
      value & flag
      & info [ "no-explore-fallback" ]
          ~doc:
            "Always sample randomly, even when the instance is small enough \
             for exhaustive exploration.")
  in
  let repro_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-out" ] ~docv:"FILE"
          ~doc:"On violation, write the minimized repro as JSON to $(docv).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a saved repro instead of fuzzing; exits 0 when the \
             violation reproduces, 3 when it no longer does.")
  in
  subcommand "fuzz"
    ~doc:
      "Property-based differential fuzzing: random schedules over every \
       implementation, cross-checked and shrunk to minimal repros."
    Term.(
      const run $ impl_opt $ mutant $ n_arg $ seed_arg $ calls_arg $ iters
      $ crashes $ burst $ no_fallback $ repro_out $ replay $ obs_out_term)

let distributed_cmd =
  let run impl n replicas ncrashed seed () =
    let (Timestamp.Registry.Impl (module T)) = impl in
    let module A = Abd.Emulation.Make (struct
        type v = T.value

        type r = T.result
      end)
    in
    let crashed = List.init ncrashed (fun i -> i) in
    let clients = List.init n (fun pid -> T.program ~n ~pid ~call:0) in
    let rand = Random.State.make [| seed |] in
    match
      A.run ~crashed ~clients ~replicas ~num_regs:(T.num_registers ~n)
        ~init:(T.init_value ~n) ~steps:(5 * n) ~rand ()
    with
    | Error e -> failwith e
    | Ok o -> (
        List.iter
          (fun (c, t) ->
             Printf.printf "  client %d -> %s\n" c
               (Format.asprintf "%a" T.pp_ts t))
          o.results;
        match A.check_timestamps ~compare_ts:T.compare_ts o with
        | Ok pairs ->
          Printf.printf
            "%s over ABD: OK (%d clients, %d replicas, %d crashed, %d \
             ordered pairs, %d messages)\n"
            T.name n replicas ncrashed pairs o.messages;
          0
        | Error e ->
          Printf.eprintf "VIOLATION: %s\n" e;
          1)
  in
  let replicas_arg =
    Arg.(
      value & opt int 3
      & info [ "replicas"; "R" ] ~docv:"R" ~doc:"Number of register replicas.")
  in
  let crashed_arg =
    Arg.(
      value & opt non_neg_int 0
      & info [ "crashed" ] ~docv:"F"
          ~doc:"Crash the first F replicas (must be a minority).")
  in
  subcommand "distributed"
    ~doc:
      "Run the implementation over ABD-emulated registers (message passing \
       with crash failures)."
    Term.(const run $ impl_arg $ n_arg $ replicas_arg $ crashed_arg $ seed_arg)

let clocks_cmd =
  let run n steps seed () =
    let rand = Random.State.make [| seed |] in
    let trace = Mp.Net.random_trace ~n ~steps ~internal_prob:0.4 ~rand () in
    Printf.printf "trace: %d events on %d nodes\n" (List.length trace) n;
    let report name = function
      | Ok () ->
        Printf.printf "%-14s OK\n" name;
        true
      | Error e ->
        Printf.printf "%-14s FAILED: %s\n" name e;
        false
    in
    let lamport = report "lamport-clock" (Clocks.Lamport_clock.check trace) in
    let vector = report "vector-clock" (Clocks.Vector_clock.check ~n trace) in
    let matrix = report "matrix-clock" (Clocks.Matrix_clock.check ~n trace) in
    if lamport && vector && matrix then 0 else 1
  in
  let steps_arg =
    Arg.(
      value & opt pos_int 100
      & info [ "steps" ] ~docv:"STEPS" ~doc:"Scheduling decisions to simulate.")
  in
  subcommand "clocks"
    ~doc:"Generate a message-passing execution and verify the logical clocks."
    Term.(const run $ n_arg $ steps_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* Service layer: serve (the wire server) and loadgen.                 *)

let telemetry_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-out" ] ~docv:"FILE"
        ~doc:
          "Sample the live gauges from a dedicated sampler domain into a \
           JSONL time series at $(docv): for $(b,loadgen), per-shard queue \
           depth, served counter, batch-size p50 and free-list occupancy; \
           for $(b,serve), per-I/O-loop served and batch counters and \
           traffic groups (connections, requests, stamps, leases, bytes).  \
           Watch it with $(b,ts_cli top --file) $(docv), validate it with \
           $(b,ts_cli obs --validate) $(docv).  Truncates unless \
           $(b,--append).")

let telemetry_interval_arg =
  Arg.(
    value & opt int 10_000
    & info [ "telemetry-interval-us" ] ~docv:"US"
        ~doc:"Telemetry sampler period, microseconds.")

(* Listen on [addr] and serve connections until a client sends a Stop
   frame (ts_cli loadgen --stop-server, or Ctrl-C). *)
let serve_cmd =
  let run impl n io_threads telemetry_out telemetry_interval listen out () =
    with_obs out @@ fun _ ->
    let (Timestamp.Registry.Impl (module T)) = impl in
    let module Srv = Net.Server.Make (T) in
    let addr =
      match Net.Conn.parse_addr listen with
      | Some addr -> addr
      | None ->
        failwith (Printf.sprintf "cannot parse --listen address %S" listen)
    in
    (* a bad sampler period is refused before the socket exists *)
    let ts =
      Option.map
        (fun file ->
           (Obs.Timeseries.create ~interval_us:telemetry_interval (), file))
        telemetry_out
    in
    let srv =
      try Srv.start ~io_threads ~addr ~n () with
      | Unix.Unix_error (e, _, _) ->
        failwith
          (Printf.sprintf "cannot listen on %s: %s"
             (Net.Conn.addr_to_string addr) (Unix.error_message e))
    in
    (* however the session ends, the loops are joined and the socket
       closed before anything else is reported *)
    Fun.protect ~finally:(fun () -> Srv.stop srv) (fun () ->
        Option.iter
          (fun (ts, file) ->
             Srv.attach_telemetry srv ts;
             Obs.Timeseries.start ~append:out.append ~out:file ts)
          ts;
        Printf.printf "serving %s at %s  n=%d io_threads=%d\n" T.name
          (Net.Conn.addr_to_string (Srv.bound_addr srv))
          n (Srv.domains srv);
        flush stdout;
        Srv.wait srv);
    Option.iter
      (fun (ts, file) ->
         Obs.Timeseries.stop ts;
         Printf.printf "telemetry: %d samples, %d stalls -> %s\n"
           (Obs.Timeseries.samples ts) (Obs.Timeseries.stalls ts) file)
      ts;
    Printf.printf "serve: stopped after %d requests over %d connections\n"
      (Srv.requests_total srv) (Srv.conns_total srv);
    0
  in
  let io_threads =
    Arg.(
      value & opt pos_int 1
      & info [ "io-threads" ] ~docv:"N"
          ~doc:
            "I/O event-loop domains.  Each loop multiplexes many \
             connections and runs the getTS of every request it decodes, \
             so the domain count stays fixed no matter how many clients \
             connect.")
  in
  let listen =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve the wire protocol at $(docv) (\"unix:PATH\", \
             \"tcp:HOST:PORT\", or bare \"HOST:PORT\"; TCP port 0 picks a \
             free port).  Runs until a client sends a stop frame \
             ($(b,ts_cli loadgen --stop-server)) or the process is \
             interrupted.")
  in
  subcommand "serve"
    ~doc:
      "Serve the timestamp object over the binary wire protocol to remote \
       clients ($(b,ts_cli loadgen --addr)); each I/O loop is one of the \
       object's processes."
    Term.(
      const run $ impl_arg $ n_arg $ io_threads $ telemetry_out_arg
      $ telemetry_interval_arg $ listen $ obs_out_term)

let loadgen_cmd =
  let run impl n clients requests pipeline shards batch_max direct rate addr
      lease stop_server telemetry_out telemetry_interval out () =
    with_obs out @@ fun _ ->
    let open Svc.Loadgen in
    let mode =
      if direct then Direct else Service { shards; batch_max }
    in
    let arrival =
      match rate with None -> Closed | Some rate -> Open { rate }
    in
    let telemetry =
      Option.map
        (fun tel_out ->
           { tel_out; tel_append = out.append;
             tel_interval_us = telemetry_interval })
        telemetry_out
    in
    let cfg =
      { default with
        mode; arrival; clients; requests_per_client = requests; pipeline;
        n; telemetry }
    in
    let print_report (r : report) =
      Printf.printf "loadgen: %s  %s\n" r.lg_impl r.lg_mode;
      Printf.printf "served %d requests in %.3fs (%.0f req/s)\n" r.lg_total
        r.lg_elapsed_s r.lg_throughput;
      Printf.printf
        "latency: p50=%.1fus p90=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus\n"
        r.lg_p50_us r.lg_p90_us r.lg_p99_us r.lg_p999_us r.lg_max_us;
      Option.iter
        (fun tel_out ->
           Printf.printf "telemetry: %d samples, %d stalls -> %s\n"
             r.lg_samples r.lg_stalls tel_out)
        telemetry_out;
      (* a shard that served nothing has no percentiles (nan) *)
      let us v = if Float.is_nan v then "-" else Printf.sprintf "%.1fus" v in
      List.iter
        (fun s ->
           Printf.printf
             "  shard %d: served=%d batches=%d max_batch=%d p50=%s p99=%s\n"
             s.sr_shard s.sr_served s.sr_batches s.sr_max_batch
             (us s.sr_p50_us) (us s.sr_p99_us))
        r.lg_shards;
      let rc =
        match r.lg_violation with
        | None ->
          Printf.printf "checker: OK (%d hb pairs)\n" r.lg_hb_pairs;
          0
        | Some v ->
          Printf.printf "checker: VIOLATION: %s\n" v;
          1
      in
      Printf.printf "checked in %.3f ms\n" (r.lg_check_s *. 1e3);
      rc
    in
    match addr with
    | None -> print_report (Svc.Loadgen.run impl cfg)
    | Some addr_str ->
      let addr =
        match Net.Conn.parse_addr addr_str with
        | Some addr -> addr
        | None -> failwith (Printf.sprintf "cannot parse --addr %S" addr_str)
      in
      print_report (Net.Client.run impl ~lease ~stop_server addr cfg)
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"C" ~doc:"Client domains.")
  in
  let requests =
    Arg.(
      value & opt int 100
      & info [ "requests"; "r" ] ~docv:"K" ~doc:"getTS requests per client.")
  in
  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"P"
          ~doc:"In-flight requests per client (client-side batching).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S" ~doc:"Worker domains / shards.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"B" ~doc:"Worker batch-size cap.")
  in
  let direct =
    Arg.(
      value & flag
      & info [ "direct" ]
          ~doc:
            "Bypass the service: clients execute getTS themselves on the \
             shared registers (the unbatched baseline).")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Open-loop mode: schedule request arrivals at $(docv) \
             requests/second (aggregate across clients) and measure \
             latency from each request's intended start, so backlog \
             counts against the service (coordinated-omission-correct). \
             Without $(docv) the generator runs the classic closed loop.")
  in
  let addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "addr" ] ~docv:"ADDR"
          ~doc:
            "Drive a live wire server ($(b,ts_cli serve --listen)) at \
             $(docv) (\"unix:PATH\", \"tcp:HOST:PORT\", or bare \
             \"HOST:PORT\") through Net.Client, instead of a fresh \
             in-process service.  $(b,--shards)/$(b,--batch)/$(b,--direct) \
             are then the server's business and ignored here.  Its shard \
             lines count this run's $(b,served) and $(b,batches) per \
             server I/O loop; $(b,max_batch) is the server's lifetime \
             maximum.")
  in
  let lease =
    Arg.(
      value & opt int 1
      & info [ "lease" ] ~docv:"K"
          ~doc:
            "Epoch-range lease size (with $(b,--addr)): each cache \
             miss fetches one anchor getTS plus $(docv) pre-reserved end \
             ticks, and the client mints the next $(docv) stamps locally \
             — one round trip amortized over $(docv) stamps.  1 (default) \
             = a round trip per stamp.")
  in
  let stop_server =
    Arg.(
      value & flag
      & info [ "stop-server" ]
          ~doc:
            "After the run, send the server a stop frame so $(b,ts_cli \
             serve --listen) shuts down gracefully and exits 0.")
  in
  subcommand "loadgen"
    ~doc:
      "Closed- or open-loop load generator over the timestamp service \
       (in-process, or a live wire server at $(b,--addr)); reports \
       throughput, HDR latency percentiles (p50/p90/p99/p99.9/max) and a \
       happens-before checker verdict."
    Term.(
      const run $ impl_arg $ n_arg $ clients $ requests $ pipeline $ shards
      $ batch $ direct $ rate $ addr $ lease $ stop_server
      $ telemetry_out_arg $ telemetry_interval_arg $ obs_out_term)

(* ------------------------------------------------------------------ *)
(* top: per-shard table rendered from a telemetry time series.         *)

let top_load path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  match Result.bind (Obs.Json.of_lines contents) Obs.Timeseries.validate with
  | Ok view -> view
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let top_render path (view : Obs.Timeseries.validation) =
  let buf = Buffer.create 1024 in
  let meta =
    String.concat " "
      (List.map
         (fun (k, v) ->
            Printf.sprintf "%s=%s" k
              (match v with
               | Obs.Json.String s -> s
               | Obs.Json.Int i -> string_of_int i
               | Obs.Json.Float f -> Printf.sprintf "%g" f
               | _ -> "?"))
         view.v_meta)
  in
  let nsamp = Array.length view.v_samples in
  let last = if nsamp > 0 then Some view.v_samples.(nsamp - 1) else None in
  let prev = if nsamp > 1 then Some view.v_samples.(nsamp - 2) else None in
  Printf.bprintf buf "telemetry: %s%s\n" path
    (if meta = "" then "" else Printf.sprintf "  (%s)" meta);
  Printf.bprintf buf "t=%s  samples=%d  events=%d  stalls=%d  [%s]\n"
    (match last with
     | Some (t, _) -> Printf.sprintf "+%.1fms" (t /. 1e3)
     | None -> "-")
    nsamp view.v_events view.v_stalls
    (if view.v_ended then "ended" else "live");
  let idx name = Array.find_index (String.equal name) view.v_series in
  let value_at sample name =
    match sample with
    | None -> None
    | Some (_, vs) ->
      Option.bind (idx name) (fun i ->
          if i < Array.length vs then vs.(i) else None)
  in
  (* slots present under a one-letter prefix: every <p><i>. in the
     series list — 's' = service shards, 'c' = a server's per-loop
     traffic groups *)
  let slots_with p =
    Array.fold_left
      (fun acc name ->
         match String.index_opt name '.' with
         | Some dot
           when dot > 1 && name.[0] = p
                && String.for_all
                     (fun c -> c >= '0' && c <= '9')
                     (String.sub name 1 (dot - 1)) ->
           let i = int_of_string (String.sub name 1 (dot - 1)) in
           if List.mem i acc then acc else i :: acc
         | _ -> acc)
      [] view.v_series
    |> List.sort Int.compare
  in
  let shards = slots_with 's' in
  let rate_of served_name =
    match (value_at last served_name, last) with
    | Some s1, Some (t1, _) -> (
        match (value_at prev served_name, prev) with
        | Some s0, Some (t0, _) when t1 > t0 ->
          Some ((s1 -. s0) /. (t1 -. t0) *. 1e6)
        | _ -> if t1 > 0. then Some (s1 /. t1 *. 1e6) else None)
    | _ -> None
  in
  let cell w = function
    | None -> Printf.sprintf "%*s" w "-"
    | Some v -> Printf.sprintf "%*.1f" w v
  in
  let cell0 w = function
    | None -> Printf.sprintf "%*s" w "-"
    | Some v -> Printf.sprintf "%*.0f" w v
  in
  Printf.bprintf buf "%-7s %10s %7s %10s %11s %11s\n" "shard" "rps" "depth"
    "batch_p50" "lat_p50_us" "lat_p99_us";
  List.iter
    (fun i ->
       let s fmt = Printf.sprintf fmt i in
       Printf.bprintf buf "%-7s %s %s %s %s %s\n"
         (Printf.sprintf "s%d" i)
         (cell0 10 (rate_of (s "s%d.served")))
         (cell0 7 (value_at last (s "s%d.depth")))
         (cell 10 (value_at last (s "s%d.batch_p50")))
         (cell 11 (value_at last (s "s%d.lat_p50_us")))
         (cell 11 (value_at last (s "s%d.lat_p99_us"))))
    shards;
  let sum_over fmt_name of_shard =
    List.fold_left
      (fun acc i ->
         match (acc, of_shard (Printf.sprintf fmt_name i)) with
         | Some a, Some v -> Some (a +. v)
         | _ -> None)
      (if shards = [] then None else Some 0.)
      shards
  in
  if shards <> [] then
    Printf.bprintf buf "%-7s %s %s %10s %s %s\n" "total"
      (cell0 10 (sum_over "s%d.served" rate_of))
      (cell0 7 (sum_over "s%d.depth" (value_at last)))
      "-"
      (cell 11 (value_at last "lat.p50_us"))
      (cell 11 (value_at last "lat.p99_us"));
  (* a network serve exports c<i>.* counter groups — show the wire
     next to the shards *)
  let conns = slots_with 'c' in
  if conns <> [] then begin
    Printf.bprintf buf "%-7s %10s %7s %10s %8s %11s %11s\n" "conn" "req_rps"
      "conns" "stamps" "leases" "bytes_in" "bytes_out";
    List.iter
      (fun i ->
         let s fmt = Printf.sprintf fmt i in
         Printf.bprintf buf "%-7s %s %s %s %s %s %s\n"
           (Printf.sprintf "c%d" i)
           (cell0 10 (rate_of (s "c%d.requests")))
           (cell0 7 (value_at last (s "c%d.conns")))
           (cell0 10 (value_at last (s "c%d.stamps")))
           (cell0 8 (value_at last (s "c%d.leases")))
           (cell0 11 (value_at last (s "c%d.bytes_in")))
           (cell0 11 (value_at last (s "c%d.bytes_out"))))
      conns
  end;
  Buffer.contents buf

let top_cmd =
  let run file once refresh_ms frames () =
    (* true once the sampler has written its end marker *)
    let render_once ~clear =
      let view = top_load file in
      if clear then print_string "\027[H\027[2J";
      print_string (top_render file view);
      flush stdout;
      view.v_ended
    in
    if once then ignore (render_once ~clear:false)
    else begin
      (* live mode is meant to race the writer from a second terminal:
         give the file a moment to appear before giving up *)
      let rec wait_for tries =
        if tries > 0 && not (Sys.file_exists file) then begin
          Obs.Clock.sleep_s 0.1;
          wait_for (tries - 1)
        end
      in
      wait_for 50;
      let rec loop frame =
        if (not (render_once ~clear:true)) && (frames = 0 || frame < frames)
        then begin
          Obs.Clock.sleep_s (float_of_int refresh_ms *. 1e-3);
          loop (frame + 1)
        end
      in
      loop 1
    end;
    0
  in
  let file =
    Arg.(
      required
      & opt (some string) None
      & info [ "file"; "f" ] ~docv:"FILE"
          ~doc:
            "Telemetry time series to watch (written by \
             $(b,--telemetry-out) on serve/loadgen).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render one frame from the current file contents and exit.")
  in
  let refresh =
    Arg.(
      value & opt int 500
      & info [ "refresh-ms" ] ~docv:"MS" ~doc:"Refresh period, milliseconds.")
  in
  let frames =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) refreshes (0 = keep refreshing until the \
             series ends).")
  in
  subcommand "top"
    ~doc:
      "Live per-shard view (rps, queue depth, batch p50, latency p50/p99) \
       of a telemetry time series; refreshes until the sampler writes its \
       end marker."
    Term.(const run $ file $ once $ refresh $ frames)

let () =
  let doc =
    "Timestamp objects from atomic registers: algorithms, adversaries and \
     experiments from Helmi, Higham, Pacheco, Woelfel (PODC 2011)."
  in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "ts_cli" ~version:"1.0.0" ~doc)
          [ list_cmd; run_cmd; adversary_cmd; figure_cmd; claims_cmd;
            stress_cmd; clocks_cmd; explore_cmd; verify_svc_cmd;
            distributed_cmd; obs_cmd; fuzz_cmd; serve_cmd; loadgen_cmd;
            top_cmd ]))
