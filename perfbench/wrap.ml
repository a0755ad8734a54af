(* A recording Svc.Client.S transport: wraps the real client that
   Svc.Loadgen.Drive drives and measures each call from outside.

   Every round records each stamp's latency on the same definition Drive
   uses, so the percentiles come from exact samples rather than from
   Drive's ~3%-wide HDR buckets.  A traced round also records one
   Obs.Trace span per call into the real client, the call durations, the
   generator's lateness, a queue-depth sample per call (in-process
   service only) and the stamps themselves, for the layer probes. *)

let now_us () = Obs.Trace.Clock.now_s () *. 1e6

(* Growable float samples, one per client handle (so one per domain). *)
module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  (* all samples of [vs] but the first [skip] of each *)
  let concat ~skip vs =
    Array.concat
      (List.map (fun v -> Array.sub v.a (min skip v.n) (v.n - min skip v.n)) vs)
end

type tracing = {
  tr : Obs.Trace.t;
  tr_base_us : float;  (* [now_us] at the trace's creation *)
  depth : (unit -> float) option;  (* the service's queue-depth gauge *)
}

(* Settings shared by every handle of one round. *)
type round = {
  clients : int;
  open_iv_us : float option;
      (* open loop: per-client arrival interval, as Drive computes it *)
  t0_us : float;
      (* taken just before Drive.run; Drive's own schedule origin is a
         little later, which [open_offset] measures afterwards *)
  tracing : tracing option;
}

module Make (C : Svc.Client.S) = struct
  type result = C.result

  type t = {
    inner : C.t;
    idx : int;  (* Drive's client index *)
    round : round;
    lat : Vec.t;
    call_us : Vec.t;
    late : Vec.t;
    depth : Vec.t;
    mutable issued : int;  (* open loop: this client's next call number *)
    mutable last_return_us : float;
    mutable stamps : C.result Svc.Client.stamp list;
  }

  let wrap round idx inner =
    { inner; idx; round; lat = Vec.create (); call_us = Vec.create ();
      late = Vec.create (); depth = Vec.create (); issued = 0;
      last_return_us = nan; stamps = [] }

  let span t name ~start_us ~end_us =
    match t.round.tracing with
    | None -> ()
    | Some g ->
      Obs.Trace.complete g.tr ~name ~start_us:(start_us -. g.tr_base_us)
        ~dur_us:(end_us -. start_us)

  let sample_depth t =
    match t.round.tracing with
    | Some { depth = Some f; _ } -> Vec.push t.depth (f ())
    | _ -> ()

  let traced t = t.round.tracing <> None

  (* Drive's closed loop times a burst from just before [stamp_batch];
     in a closed loop the generator's lateness is its own gap between
     one burst returning and the next being issued. *)
  let stamp_batch t k =
    let t_issue = now_us () in
    if traced t then begin
      if not (Float.is_nan t.last_return_us) then
        Vec.push t.late (t_issue -. t.last_return_us);
      sample_depth t
    end;
    let l = C.stamp_batch t.inner k in
    List.iter
      (fun (s : C.result Svc.Client.stamp) ->
         Vec.push t.lat (s.st_resp_us -. t_issue))
      l;
    if traced t then begin
      let t_end = now_us () in
      Vec.push t.call_us (t_end -. t_issue);
      span t "client.stamp_batch" ~start_us:t_issue ~end_us:t_end;
      t.last_return_us <- t_end;
      t.stamps <- List.rev_append l t.stamps
    end;
    l

  let stamp t =
    match stamp_batch t 1 with [ s ] -> s | _ -> assert false

  (* Drive's open loop: client [i]'s call [k] is due at
     [t0 + iv * i / clients + k * iv], and its latency runs from then. *)
  let stamp_async t =
    let k = t.issued in
    t.issued <- k + 1;
    let t_issue = if traced t then now_us () else 0. in
    let due =
      match t.round.open_iv_us with
      | Some iv ->
        t.round.t0_us
        +. (iv *. float_of_int t.idx /. float_of_int t.round.clients)
        +. (float_of_int k *. iv)
      | None -> if traced t then t_issue else now_us ()
    in
    if traced t then begin
      Vec.push t.late (t_issue -. due);
      sample_depth t
    end;
    let complete = C.stamp_async t.inner in
    let t_issued = if traced t then now_us () else 0. in
    fun () ->
      let t_wait = if traced t then now_us () else 0. in
      let s = complete () in
      Vec.push t.lat (s.Svc.Client.st_resp_us -. due);
      if traced t then begin
        let t_end = now_us () in
        Vec.push t.call_us (t_issued -. t_issue +. (t_end -. t_wait));
        span t "client.stamp_async" ~start_us:t_issue ~end_us:t_issued;
        span t "client.complete" ~start_us:t_wait ~end_us:t_end;
        t.stamps <- s :: t.stamps
      end;
      s

  let compare t a b = C.compare t.inner a b

  let close t = C.close t.inner
end

(* [t0_us] precedes Drive's own schedule origin by a fixed offset, so
   every open-loop sample reads that much too high.  Drive's HDR keeps the
   largest latency exactly, which pins the offset: the largest recorded
   sample minus Drive's maximum. *)
let open_offset ~drive_max_us lat =
  Array.fold_left Float.max neg_infinity lat -. drive_max_us
