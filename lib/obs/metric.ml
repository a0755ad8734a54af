let schema_version = 1

type counter = { mutable c : int }

type gauge = { mutable g : float; mutable g_max : float; mutable g_set : bool }

type histogram = {
  bounds : float array;  (* ascending upper bounds *)
  counts : int array;  (* length bounds + 1; last is overflow *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type registry = {
  r_name : string;
  by_name : (string, metric) Hashtbl.t;
  mutable rev_order : string list;  (* registration order, reversed *)
  lock : Mutex.t;
}

let registry ?(name = "obs") () =
  { r_name = name;
    by_name = Hashtbl.create 64;
    rev_order = [];
    lock = Mutex.create () }

let find_or_register r name ~kind ~make ~cast =
  Mutex.lock r.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock r.lock)
    (fun () ->
       match Hashtbl.find_opt r.by_name name with
       | Some m -> (
           match cast m with
           | Some x -> x
           | None ->
             invalid_arg
               (Printf.sprintf
                  "Obs.Metric: %S already registered with a kind other than %s"
                  name kind))
       | None ->
         let x, m = make () in
         Hashtbl.add r.by_name name m;
         r.rev_order <- name :: r.rev_order;
         x)

let counter r name =
  find_or_register r name ~kind:"counter"
    ~make:(fun () ->
        let c = { c = 0 } in
        (c, Counter c))
    ~cast:(function Counter c -> Some c | _ -> None)

let gauge r name =
  find_or_register r name ~kind:"gauge"
    ~make:(fun () ->
        let g = { g = 0.; g_max = neg_infinity; g_set = false } in
        (g, Gauge g))
    ~cast:(function Gauge g -> Some g | _ -> None)

let default_buckets = Array.init 21 (fun i -> float_of_int (1 lsl i))

let histogram ?(buckets = default_buckets) r name =
  Array.iteri
    (fun i b ->
       if i > 0 && b <= buckets.(i - 1) then
         invalid_arg "Obs.Metric.histogram: buckets must be ascending")
    buckets;
  find_or_register r name ~kind:"histogram"
    ~make:(fun () ->
        let h =
          { bounds = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            h_count = 0;
            h_sum = 0.;
            h_min = infinity;
            h_max = neg_infinity }
        in
        (h, Histogram h))
    ~cast:(function Histogram h -> Some h | _ -> None)

let incr c = c.c <- c.c + 1

let add c n = c.c <- c.c + n

let value c = c.c

let set g v =
  g.g <- v;
  g.g_set <- true;
  if v > g.g_max then g.g_max <- v

let gauge_value g = g.g

let observe h v =
  let nb = Array.length h.bounds in
  (* linear scan: bucket counts are tiny (~21) and observations are
     telemetry-path only *)
  let rec slot i = if i >= nb || v <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let percentile h p =
  if h.h_count = 0 then nan
    (* the distribution's edges are known exactly — don't interpolate a
       bucket bound for them *)
  else if p <= 0. then h.h_min
  else if p >= 100. then h.h_max
  else begin
    let rank = p /. 100. *. float_of_int h.h_count in
    let nb = Array.length h.bounds in
    let rec go i cum =
      if i > nb then h.h_max
      else
        let cum' = cum + h.counts.(i) in
        if h.counts.(i) > 0 && float_of_int cum' >= rank then begin
          (* interpolate within the bucket, then clamp to the observed
             range so an almost-empty histogram doesn't report a bucket
             bound nothing ever reached *)
          let lo = if i = 0 then 0. else h.bounds.(i - 1) in
          let hi = if i < nb then h.bounds.(i) else h.h_max in
          let frac = (rank -. float_of_int cum) /. float_of_int h.counts.(i) in
          let v = lo +. ((hi -. lo) *. Float.max 0. frac) in
          Float.min h.h_max (Float.max h.h_min v)
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

let hist_count h = h.h_count

let hist_sum h = h.h_sum

let hist_buckets h =
  List.init
    (Array.length h.counts)
    (fun i ->
       ( (if i < Array.length h.bounds then h.bounds.(i) else infinity),
         h.counts.(i) ))

let in_order r =
  Mutex.lock r.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock r.lock)
    (fun () ->
       List.rev_map
         (fun name -> (name, Hashtbl.find r.by_name name))
         r.rev_order)

let metric_json r_name name m : Json.t =
  let base = [ ("schema_version", Json.Int schema_version);
               ("registry", Json.String r_name);
               ("name", Json.String name) ] in
  match m with
  | Counter c ->
    Json.Obj (base @ [ ("kind", Json.String "counter"); ("value", Json.Int c.c) ])
  | Gauge g ->
    Json.Obj
      (base
       @ [ ("kind", Json.String "gauge");
           ("value", Json.Float g.g);
           ("max", if g.g_set then Json.Float g.g_max else Json.Null) ])
  | Histogram h ->
    let buckets =
      List.map
        (fun (le, count) ->
           Json.Obj
             [ ( "le",
                 if le = infinity then Json.String "+inf" else Json.Float le );
               ("count", Json.Int count) ])
        (hist_buckets h)
    in
    Json.Obj
      (base
       @ [ ("kind", Json.String "histogram");
           ("count", Json.Int h.h_count);
           ("sum", Json.Float h.h_sum);
           ("min", if h.h_count = 0 then Json.Null else Json.Float h.h_min);
           ("max", if h.h_count = 0 then Json.Null else Json.Float h.h_max);
           ("buckets", Json.List buckets) ])

let to_jsonl r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
       Json.to_buffer buf (metric_json r.r_name name m);
       Buffer.add_char buf '\n')
    (in_order r);
  Buffer.contents buf

let open_out_mode ~append path =
  Out_channel.open_gen
    (if append then [ Open_wronly; Open_append; Open_creat; Open_text ]
     else [ Open_wronly; Open_trunc; Open_creat; Open_text ])
    0o644 path

let write_jsonl_file ?(append = false) r path =
  let oc = open_out_mode ~append path in
  Fun.protect
    ~finally:(fun () -> Out_channel.close_noerr oc)
    (fun () -> Out_channel.output_string oc (to_jsonl r))

let pp_table ppf r =
  let metrics = in_order r in
  let widest =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 10 metrics
  in
  Format.fprintf ppf "%-*s  %-9s  %s@." widest "metric" "kind" "value";
  Format.fprintf ppf "%s@." (String.make (widest + 30) '-');
  List.iter
    (fun (name, m) ->
       match m with
       | Counter c ->
         Format.fprintf ppf "%-*s  %-9s  %d@." widest name "counter" c.c
       | Gauge g ->
         Format.fprintf ppf "%-*s  %-9s  %.3f (max %.3f)@." widest name
           "gauge" g.g
           (if g.g_set then g.g_max else g.g)
       | Histogram h ->
         if h.h_count = 0 then
           Format.fprintf ppf "%-*s  %-9s  (empty)@." widest name "histogram"
         else
           Format.fprintf ppf
             "%-*s  %-9s  count=%d sum=%.1f min=%.1f mean=%.2f p50=%.1f \
              p99=%.1f max=%.1f@."
             widest name "histogram" h.h_count h.h_sum h.h_min
             (h.h_sum /. float_of_int h.h_count)
             (percentile h 50.) (percentile h 99.) h.h_max)
    metrics
