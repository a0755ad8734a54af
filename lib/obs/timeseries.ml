(* Schema-versioned JSONL time series written by a dedicated sampler
   domain.  Sources are registered before [start]; the sampler wakes every
   [interval_us], samples each source, writes one "sample" line, runs the
   stall rules, and flushes — so a tailing reader ([ts_cli top]) always
   sees complete lines.  All file I/O happens on the sampler domain; the
   instrumented code only ever executes the source closures it handed us,
   and only from the sampler domain. *)

let schema_version = 1

type source = { src_name : string; sample : unit -> float }

(* A stall rule watches a (queue depth, progress counter) pair: when the
   progress counter stops moving for [after] consecutive samples while the
   depth is positive, the shard is stuck — emit an event. *)
type rule = {
  rule_name : string;
  depth : unit -> float;
  progress : unit -> float;
  after : int;
  mutable last_progress : float;
  mutable primed : bool;
  mutable stuck_for : int;
}

type t = {
  interval_us : int;
  mutable rev_sources : source list;
  mutable rev_rules : rule list;
  mutable meta : (string * Json.t) list;
  mutable started : bool;
  stop_flag : bool Atomic.t;
  n_samples : int Atomic.t;
  n_stalls : int Atomic.t;
  mutable sampler : unit Domain.t option;
}

let create ?(interval_us = 10_000) () =
  if interval_us <= 0 then
    invalid_arg "Obs.Timeseries.create: interval_us must be positive";
  { interval_us;
    rev_sources = [];
    rev_rules = [];
    meta = [];
    started = false;
    stop_flag = Atomic.make false;
    n_samples = Atomic.make 0;
    n_stalls = Atomic.make 0;
    sampler = None }

let check_not_started t what =
  if t.started then
    invalid_arg (Printf.sprintf "Obs.Timeseries.%s: already started" what)

let add_source t ~name sample =
  check_not_started t "add_source";
  t.rev_sources <- { src_name = name; sample } :: t.rev_sources

let add_stall_rule ?(after = 3) t ~name ~depth ~progress =
  check_not_started t "add_stall_rule";
  if after <= 0 then
    invalid_arg "Obs.Timeseries.add_stall_rule: after must be positive";
  t.rev_rules <-
    { rule_name = name; depth; progress; after;
      last_progress = 0.; primed = false; stuck_for = 0 }
    :: t.rev_rules

let add_meta t key v =
  check_not_started t "add_meta";
  t.meta <- t.meta @ [ (key, v) ]

let samples t = Atomic.get t.n_samples

let stalls t = Atomic.get t.n_stalls

let write_line oc json =
  Json.to_channel oc json;
  Out_channel.output_char oc '\n';
  Out_channel.flush oc

let header_json t sources =
  Json.Obj
    [ ("schema_version", Json.Int schema_version);
      ("kind", Json.String "header");
      ("interval_us", Json.Int t.interval_us);
      ("series",
       Json.List (List.map (fun s -> Json.String s.src_name) sources));
      ("meta", Json.Obj t.meta) ]

let sample_once t ~t0 ~sources ~rules oc =
  let t_us = float_of_int (Clock.now_ns () - t0) *. 1e-3 in
  let values = List.map (fun s -> s.sample ()) sources in
  write_line oc
    (Json.Obj
       [ ("kind", Json.String "sample");
         ("t_us", Json.Float t_us);
         ("v", Json.List (List.map (fun v -> Json.Float v) values)) ]);
  Atomic.incr t.n_samples;
  List.iter
    (fun r ->
       let d = r.depth () and p = r.progress () in
       if r.primed && p = r.last_progress && d > 0. then begin
         r.stuck_for <- r.stuck_for + 1;
         if r.stuck_for >= r.after then begin
           write_line oc
             (Json.Obj
                [ ("kind", Json.String "event");
                  ("event", Json.String "stall");
                  ("rule", Json.String r.rule_name);
                  ("t_us", Json.Float t_us);
                  ("depth", Json.Float d) ]);
           Atomic.incr t.n_stalls;
           r.stuck_for <- 0
         end
       end
       else r.stuck_for <- 0;
       r.last_progress <- p;
       r.primed <- true)
    rules

let start ?(append = false) ~out t =
  check_not_started t "start";
  t.started <- true;
  let sources = List.rev t.rev_sources in
  let rules = List.rev t.rev_rules in
  let oc =
    Out_channel.open_gen
      (if append then [ Open_wronly; Open_append; Open_creat; Open_text ]
       else [ Open_wronly; Open_trunc; Open_creat; Open_text ])
      0o644 out
  in
  write_line oc (header_json t sources);
  let t0 = Clock.now_ns () in
  let interval_s = float_of_int t.interval_us *. 1e-6 in
  t.sampler <-
    Some
      (Domain.spawn (fun () ->
           let rec loop () =
             if Atomic.get t.stop_flag then ()
             else begin
               Clock.sleep_s interval_s;
               sample_once t ~t0 ~sources ~rules oc;
               loop ()
             end
           in
           (try loop ()
            with e ->
              Out_channel.close_noerr oc;
              raise e);
           (* final sample + footer so short runs still record state *)
           sample_once t ~t0 ~sources ~rules oc;
           write_line oc
             (Json.Obj
                [ ("kind", Json.String "end");
                  ("samples", Json.Int (Atomic.get t.n_samples));
                  ("stalls", Json.Int (Atomic.get t.n_stalls)) ]);
           Out_channel.close_noerr oc))

let stop t =
  if Atomic.compare_and_set t.stop_flag false true then
    match t.sampler with
    | Some d ->
      t.sampler <- None;
      Domain.join d
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Validation of the emitted schema, shared by tests, [ts_cli obs
   --validate] and [ts_cli top]: the one reader of the format.         *)

type validation = {
  v_meta : (string * Json.t) list;
  v_series : string array;
  v_samples : (float * float option array) array;
  v_events : int;
  v_stalls : int;
  v_ended : bool;
}

let kind_of doc =
  match Json.member "kind" doc with Some (Json.String k) -> Some k | _ -> None

let looks_like = function
  | doc :: _ -> kind_of doc = Some "header"
  | [] -> false

let num_of = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let validate docs =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match docs with
  | [] -> err "empty time series"
  | header :: rest -> (
      match
        (kind_of header, Json.member "schema_version" header,
         Json.member "series" header)
      with
      | Some "header", Some (Json.Int v), Some (Json.List series) ->
        let names =
          List.filter_map (function Json.String s -> Some s | _ -> None)
            series
        in
        if v <> schema_version then
          err "telemetry schema_version %d (expected %d)" v schema_version
        else if List.length names <> List.length series then
          err "header series must be strings"
        else begin
          let width = List.length series in
          let rec go i last_t rev_samples events stalls seen_end = function
            | [] ->
              Ok { v_meta =
                     (match Json.member "meta" header with
                      | Some (Json.Obj kvs) -> kvs
                      | _ -> []);
                   v_series = Array.of_list names;
                   v_samples = Array.of_list (List.rev rev_samples);
                   v_events = events; v_stalls = stalls; v_ended = seen_end }
            | doc :: rest ->
              if seen_end then err "line %d: document after end marker" i
              else begin
                match kind_of doc with
                | Some "sample" -> (
                    match
                      (Option.bind (Json.member "t_us" doc) num_of,
                       Json.member "v" doc)
                    with
                    | Some t, Some (Json.List vs) ->
                      if t < last_t then
                        err "line %d: t_us went backwards (%.1f < %.1f)" i t
                          last_t
                      else if List.length vs <> width then
                        err "line %d: sample has %d values for %d series" i
                          (List.length vs) width
                      else if
                        not
                          (List.for_all
                             (fun v -> num_of v <> None || v = Json.Null)
                             vs)
                      then
                        err
                          "line %d: sample values must be numbers (or null \
                           for not-yet-defined gauges)" i
                      else
                        go (i + 1) t
                          ((t, Array.of_list (List.map num_of vs))
                           :: rev_samples)
                          events stalls false rest
                    | _ -> err "line %d: malformed sample" i)
                | Some "event" -> (
                    match Json.member "event" doc with
                    | Some (Json.String e) ->
                      go (i + 1) last_t rev_samples (events + 1)
                        (stalls + if e = "stall" then 1 else 0)
                        false rest
                    | _ -> err "line %d: event without event name" i)
                | Some "end" -> (
                    match
                      (Json.member "samples" doc, Json.member "stalls" doc)
                    with
                    | Some (Json.Int s), Some (Json.Int st) ->
                      let samples = List.length rev_samples in
                      if s <> samples then
                        err "line %d: end marker counts %d samples, saw %d" i
                          s samples
                      else if st <> stalls then
                        err "line %d: end marker counts %d stalls, saw %d" i
                          st stalls
                      else go (i + 1) last_t rev_samples events stalls true rest
                    | _ -> err "line %d: malformed end marker" i)
                | Some k -> err "line %d: unknown kind %S" i k
                | None -> err "line %d: document without kind" i
              end
          in
          go 2 neg_infinity [] 0 0 false rest
        end
      | Some "header", _, _ -> err "malformed telemetry header"
      | _ -> err "first line is not a telemetry header")
