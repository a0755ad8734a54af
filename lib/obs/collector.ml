type t = {
  mutable reads : int array;  (* per register *)
  mutable writes : int array;  (* per register, swaps included *)
  mutable first_write : int array;  (* per register, -1 = never *)
  mutable invocations : int array;  (* per process *)
  mutable responses : int array;  (* per process *)
  mutable events : int;  (* every sim event seen, the telemetry clock *)
  mutable covered_max : int;
}

let create () =
  { reads = [||];
    writes = [||];
    first_write = [||];
    invocations = [||];
    responses = [||];
    events = 0;
    covered_max = 0 }

let grow arr n ~fill =
  let len = Array.length arr in
  if n < len then arr
  else begin
    let bigger = Array.make (max (n + 1) (max 8 (2 * len))) fill in
    Array.blit arr 0 bigger 0 len;
    bigger
  end

let reg_slot c r =
  if r >= Array.length c.reads then begin
    c.reads <- grow c.reads r ~fill:0;
    c.writes <- grow c.writes r ~fill:0;
    c.first_write <- grow c.first_write r ~fill:(-1)
  end

let proc_slot c p =
  if p >= Array.length c.invocations then begin
    c.invocations <- grow c.invocations p ~fill:0;
    c.responses <- grow c.responses p ~fill:0
  end

let on_sim c (ev : Hooks.sim_event) ~pid ~reg =
  let now = c.events in
  c.events <- now + 1;
  if pid >= 0 then proc_slot c pid;
  (match ev with
   | Hooks.Read ->
     reg_slot c reg;
     c.reads.(reg) <- c.reads.(reg) + 1
   | Hooks.Write | Hooks.Swap ->
     reg_slot c reg;
     c.writes.(reg) <- c.writes.(reg) + 1;
     if c.first_write.(reg) < 0 then c.first_write.(reg) <- now
   | Hooks.Invoke ->
     if pid >= 0 then c.invocations.(pid) <- c.invocations.(pid) + 1
   | Hooks.Respond ->
     if pid >= 0 then c.responses.(pid) <- c.responses.(pid) + 1
   | Hooks.Crash -> ())

let hooks c =
  { Hooks.noop with
    Hooks.on_sim = (fun ev ~pid ~reg -> on_sim c ev ~pid ~reg);
    on_counter =
      (fun ~name v ->
         if name = "sim.covered" then begin
           let v = int_of_float v in
           if v > c.covered_max then c.covered_max <- v
         end) }

(* A register index can be probed beyond what grew: answer 0 / -1. *)
let get arr i ~default = if i < Array.length arr then arr.(i) else default

let highest_used c =
  let hi = ref 0 in
  Array.iteri (fun i x -> if x > 0 then hi := max !hi (i + 1)) c.reads;
  Array.iteri (fun i x -> if x > 0 then hi := max !hi (i + 1)) c.writes;
  !hi

let reads c r = get c.reads r ~default:0

let writes c r = get c.writes r ~default:0

let first_write_step c r = get c.first_write r ~default:(-1)

let proc_responses c p = get c.responses p ~default:0

let totals c =
  let sum arr = Array.fold_left ( + ) 0 arr in
  (sum c.reads, sum c.writes, sum c.invocations)

let max_covered c = c.covered_max

let touched_count c =
  let m = highest_used c in
  let count = ref 0 in
  for r = 0 to m - 1 do
    if reads c r > 0 || writes c r > 0 then incr count
  done;
  !count

let written_count c =
  let m = highest_used c in
  let count = ref 0 in
  for r = 0 to m - 1 do
    if writes c r > 0 then incr count
  done;
  !count

let fill_registry c registry =
  let total_reads, total_writes, total_invocations = totals c in
  let put name v = Metric.add (Metric.counter registry name) v in
  put "registers.reads" total_reads;
  put "registers.writes" total_writes;
  put "registers.invocations" total_invocations;
  put "registers.touched" (touched_count c);
  put "registers.written" (written_count c);
  Metric.set
    (Metric.gauge registry "registers.max_covered")
    (float_of_int c.covered_max)

let pp_heatmap ppf c =
  let m = highest_used c in
  if m = 0 then Format.fprintf ppf "(no register accesses recorded)@."
  else begin
    let hottest = ref 1 in
    for r = 0 to m - 1 do
      hottest := max !hottest (reads c r + writes c r)
    done;
    Format.fprintf ppf "%4s | %8s %8s %11s | %s@." "reg" "reads" "writes"
      "first-write" "heat (reads+writes)";
    Format.fprintf ppf "%s@." (String.make 72 '-');
    for r = 0 to m - 1 do
      let rd = reads c r and wr = writes c r in
      let width = (rd + wr) * 34 / !hottest in
      Format.fprintf ppf "%4d | %8d %8d %11s | %s@." r rd wr
        (let fw = first_write_step c r in
         if fw < 0 then "-" else string_of_int fw)
        (String.make width '#')
    done;
    Format.fprintf ppf
      "%d registers touched, %d written, max %d simultaneously covered@."
      (touched_count c) (written_count c) c.covered_max
  end
