type t = {
  t0 : int;  (* trace epoch, [Obs.Clock] nanoseconds *)
  process_name : string;
  lock : Mutex.t;
  mutable rev_events : Json.t list;
  mutable count : int;
}

let create ?(process_name = "ts_repro") () =
  { t0 = Clock.now_ns ();
    process_name;
    lock = Mutex.create ();
    rev_events = [];
    count = 0 }

let now_us t = float_of_int (Clock.now_ns () - t.t0) *. 1e-3

let tid () = (Domain.self () :> int)

let push t ev =
  Mutex.lock t.lock;
  t.rev_events <- ev :: t.rev_events;
  t.count <- t.count + 1;
  Mutex.unlock t.lock

let event t ~ph ~name ?(args = []) ?ts ?dur () =
  let ts = match ts with Some ts -> ts | None -> now_us t in
  let fields =
    [ ("name", Json.String name);
      ("ph", Json.String ph);
      ("ts", Json.Float ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int (tid ())) ]
    @ (match dur with Some d -> [ ("dur", Json.Float d) ] | None -> [])
    @ (match args with [] -> [] | a -> [ ("args", Json.Obj a) ])
  in
  push t (Json.Obj fields)

let span_begin t ~name = event t ~ph:"B" ~name ()

let span_end t ~name = event t ~ph:"E" ~name ()

let counter t ~name v =
  event t ~ph:"C" ~name ~args:[ ("value", Json.Float v) ] ()

let complete t ~name ~start_us ~dur_us =
  event t ~ph:"X" ~name ~ts:start_us ~dur:dur_us ()

let hooks t =
  { Hooks.noop with
    Hooks.on_span_begin = (fun ~name -> span_begin t ~name);
    on_span_end = (fun ~name -> span_end t ~name);
    on_counter = (fun ~name v -> counter t ~name v) }

let num_events t = t.count

let to_json t =
  let events =
    Mutex.lock t.lock;
    let evs = List.rev t.rev_events in
    Mutex.unlock t.lock;
    evs
  in
  let metadata =
    Json.Obj
      [ ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String t.process_name) ]) ]
  in
  Json.Obj
    [ ("traceEvents", Json.List (metadata :: events));
      ("displayTimeUnit", Json.String "ms");
      ("otherData",
       Json.Obj [ ("schema_version", Json.Int Metric.schema_version) ]) ]

let write_file ?(append = false) t path =
  let oc =
    Out_channel.open_gen
      (if append then [ Open_wronly; Open_append; Open_creat; Open_text ]
       else [ Open_wronly; Open_trunc; Open_creat; Open_text ])
      0o644 path
  in
  Fun.protect
    ~finally:(fun () -> Out_channel.close_noerr oc)
    (fun () ->
       Out_channel.output_string oc (Json.pretty_to_string (to_json t));
       Out_channel.output_char oc '\n')

module Clock = struct let now_s () = float_of_int (Clock.now_ns ()) *. 1e-9 end
