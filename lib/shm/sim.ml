type ('v, 'r) proc =
  | Idle
  | Running of ('v, 'r) Prog.t
  | Crashed of bool  (* true when it died with a call in progress *)

type ('v, 'r) t = {
  n : int;
  regs : 'v array;
  procs : ('v, 'r) proc array;
  calls : int array;
  rev_results : (History.op * 'r) list;
  hist : History.t;
  steps : int;
  writes : int;
  reg_written : bool array;
  reg_read : bool array;
  (* Incremental fingerprint support (see {!fingerprint}).  [proc_sig.(p)]
     identifies the continuation of [p]'s call in progress: programs are
     deterministic in the call number and the sequence of values their
     shared-memory operations returned, so hashing that sequence identifies
     the closure without inspecting it.  The hash is deliberately
     {e pid-blind} (the pid enters the fingerprint positionally, or through
     the canonical sort under the symmetry quotient), so that two processes
     running the same program in the same per-call state carry equal
     signatures.

     The history enters the fingerprint through its happens-before
     abstraction rather than its literal event sequence.  Each operation
     [(pid, call)] is summarized by an {e op core}: a hash of its call
     number, the invocation epoch (how many responses had completed when it
     was invoked) and, once completed, its response index and result hash.
     [A happens-before B] iff [resp_index A <= inv_epoch B], so equal
     multisets of op cores mean equal happens-before relations, results and
     response orders — everything an hb-based checker can observe.
     [hist_acc.(p)] is the commutative (wrapping-sum) accumulator of [p]'s
     op cores; invocation {e order} within an epoch is thereby quotiented
     away, merging states that differ only in how concurrent invocations
     interleaved.  [inv_epoch.(p)] remembers the epoch of [p]'s open call so
     its provisional open-op core can be replaced by the completed one on
     response; [resp_count] is the epoch clock. *)
  proc_sig : int array;
  hist_acc : int array;
  inv_epoch : int array;
  resp_count : int;
}

(* FNV-style mixing; [vhash] bounds the traversal generously so that values
   such as length-n vectors still hash with full fidelity at model-checking
   scales. *)
let mix h k = (h * 0x01000193) lxor k

let vhash v = Hashtbl.hash_param 256 256 v

(* Op cores for the happens-before history abstraction (see the [hist_acc]
   field).  Open and closed cores use distinct tags so an in-progress call
   never collides with a completed one; accumulation uses wrapping [+],
   which is commutative and invertible (the open core is subtracted when
   the call responds). *)
let op_open ~call ~epoch = mix (mix (mix 0x811c 1) call) epoch

let op_closed ~call ~epoch ~resp_index ~res_hash =
  mix (mix (mix (mix (mix 0x811c 2) call) epoch) resp_index) res_hash

type 'v poised =
  | P_idle
  | P_crashed
  | P_read of int
  | P_write of int * 'v
  | P_swap of int * 'v
  | P_rmw of int
  | P_await of int * bool
  | P_respond

let of_regs ~n ~regs =
  if n <= 0 then invalid_arg "Sim.of_regs: n must be positive";
  let num_regs = Array.length regs in
  { n;
    regs = Array.copy regs;
    procs = Array.make n Idle;
    calls = Array.make n 0;
    rev_results = [];
    hist = History.empty;
    steps = 0;
    writes = 0;
    reg_written = Array.make num_regs false;
    reg_read = Array.make num_regs false;
    proc_sig = Array.make n 0;
    hist_acc = Array.make n 0;
    inv_epoch = Array.make n 0;
    resp_count = 0 }

let create ~n ~num_regs ~init =
  if num_regs < 0 then invalid_arg "Sim.create: num_regs must be >= 0";
  of_regs ~n ~regs:(Array.make num_regs init)

let n cfg = cfg.n

let num_regs cfg = Array.length cfg.regs

let check_pid cfg pid =
  if pid < 0 || pid >= cfg.n then invalid_arg "Sim: pid out of range"

let reg cfg r = cfg.regs.(r)

let regs cfg = Array.copy cfg.regs

let poised cfg pid =
  check_pid cfg pid;
  match cfg.procs.(pid) with
  | Idle -> P_idle
  | Crashed _ -> P_crashed
  | Running (Prog.Done _) -> P_respond
  | Running (Prog.Read (r, _)) -> P_read r
  | Running (Prog.Write (r, v, _)) -> P_write (r, v)
  | Running (Prog.Swap (r, v, _)) -> P_swap (r, v)
  | Running (Prog.Rmw (r, _, _)) -> P_rmw r
  | Running (Prog.Await (r, g, _)) -> P_await (r, g cfg.regs.(r))

(* A poised swap covers its register exactly like a poised write: both are
   historyless overwrites, and the covering arguments of the paper apply to
   either (Section 7).  A poised rmw does NOT cover: the stored value
   depends on the old contents, so it is not historyless and the paper's
   covering machinery does not apply to it (neither does an await, which
   writes nothing). *)
let covers cfg pid =
  match poised cfg pid with
  | P_write (r, _) | P_swap (r, _) -> Some r
  | P_idle | P_crashed | P_read _ | P_rmw _ | P_await _ | P_respond -> None

let invoke cfg ~pid ~program =
  check_pid cfg pid;
  (match cfg.procs.(pid) with
   | Idle -> ()
   | Running _ -> invalid_arg "Sim.invoke: process has a call in progress"
   | Crashed _ -> invalid_arg "Sim.invoke: process has crashed");
  Obs.Hooks.sim Obs.Hooks.Invoke ~pid ~reg:(-1);
  let call = cfg.calls.(pid) in
  let procs = Array.copy cfg.procs in
  let calls = Array.copy cfg.calls in
  procs.(pid) <- Running (program ~call);
  calls.(pid) <- call + 1;
  let proc_sig = Array.copy cfg.proc_sig in
  proc_sig.(pid) <- mix 0x5bd1 call;
  let hist_acc = Array.copy cfg.hist_acc in
  let inv_epoch = Array.copy cfg.inv_epoch in
  let epoch = cfg.resp_count in
  hist_acc.(pid) <- hist_acc.(pid) + op_open ~call ~epoch;
  inv_epoch.(pid) <- epoch;
  { cfg with
    procs; calls; proc_sig; hist_acc; inv_epoch;
    hist = History.invoke cfg.hist ~pid ~call }

let step cfg pid =
  check_pid cfg pid;
  match cfg.procs.(pid) with
  | Idle -> invalid_arg "Sim.step: process is idle"
  | Crashed _ -> invalid_arg "Sim.step: process has crashed"
  | Running p ->
    let procs = Array.copy cfg.procs in
    let proc_sig = Array.copy cfg.proc_sig in
    (match p with
     | Prog.Done res ->
       Obs.Hooks.sim Obs.Hooks.Respond ~pid ~reg:(-1);
       let call = cfg.calls.(pid) - 1 in
       procs.(pid) <- Idle;
       proc_sig.(pid) <- 0;
       let op : History.op = { pid; call } in
       let hist_acc = Array.copy cfg.hist_acc in
       let epoch = cfg.inv_epoch.(pid) in
       hist_acc.(pid) <-
         hist_acc.(pid)
         - op_open ~call ~epoch
         + op_closed ~call ~epoch ~resp_index:cfg.resp_count
             ~res_hash:(vhash res);
       { cfg with
         procs; proc_sig; hist_acc;
         resp_count = cfg.resp_count + 1;
         rev_results = (op, res) :: cfg.rev_results;
         hist = History.respond cfg.hist ~pid ~call;
         steps = cfg.steps + 1 }
     | Prog.Read (r, k) ->
       Obs.Hooks.sim Obs.Hooks.Read ~pid ~reg:r;
       procs.(pid) <- Running (k cfg.regs.(r));
       proc_sig.(pid) <- mix (mix proc_sig.(pid) 1) (vhash cfg.regs.(r));
       let reg_read = Array.copy cfg.reg_read in
       reg_read.(r) <- true;
       { cfg with procs; proc_sig; reg_read; steps = cfg.steps + 1 }
     | Prog.Write (r, v, k) ->
       Obs.Hooks.sim Obs.Hooks.Write ~pid ~reg:r;
       let regs = Array.copy cfg.regs in
       regs.(r) <- v;
       procs.(pid) <- Running (k ());
       proc_sig.(pid) <- mix proc_sig.(pid) 2;
       let reg_written = Array.copy cfg.reg_written in
       reg_written.(r) <- true;
       { cfg with
         procs; proc_sig; regs; reg_written;
         steps = cfg.steps + 1;
         writes = cfg.writes + 1 }
     | Prog.Swap (r, v, k) ->
       Obs.Hooks.sim Obs.Hooks.Swap ~pid ~reg:r;
       let old = cfg.regs.(r) in
       let regs = Array.copy cfg.regs in
       regs.(r) <- v;
       procs.(pid) <- Running (k old);
       proc_sig.(pid) <- mix (mix proc_sig.(pid) 3) (vhash old);
       let reg_written = Array.copy cfg.reg_written in
       reg_written.(r) <- true;
       { cfg with
         procs; proc_sig; regs; reg_written;
         steps = cfg.steps + 1;
         writes = cfg.writes + 1 }
     | Prog.Rmw (r, u, k) ->
       (* Reported to telemetry as a swap: one atomic op that overwrites its
          register.  Reads and writes the register in the same step. *)
       Obs.Hooks.sim Obs.Hooks.Swap ~pid ~reg:r;
       let old = cfg.regs.(r) in
       let regs = Array.copy cfg.regs in
       regs.(r) <- u old;
       procs.(pid) <- Running (k old);
       proc_sig.(pid) <- mix (mix proc_sig.(pid) 4) (vhash old);
       let reg_written = Array.copy cfg.reg_written in
       reg_written.(r) <- true;
       let reg_read = Array.copy cfg.reg_read in
       reg_read.(r) <- true;
       { cfg with
         procs; proc_sig; regs; reg_written; reg_read;
         steps = cfg.steps + 1;
         writes = cfg.writes + 1 }
     | Prog.Await (r, g, k) ->
       let v = cfg.regs.(r) in
       if not (g v) then
         invalid_arg "Sim.step: process is blocked on await";
       Obs.Hooks.sim Obs.Hooks.Read ~pid ~reg:r;
       procs.(pid) <- Running (k v);
       proc_sig.(pid) <- mix (mix proc_sig.(pid) 5) (vhash v);
       let reg_read = Array.copy cfg.reg_read in
       reg_read.(r) <- true;
       { cfg with procs; proc_sig; reg_read; steps = cfg.steps + 1 })

let crash cfg pid =
  check_pid cfg pid;
  Obs.Hooks.sim Obs.Hooks.Crash ~pid ~reg:(-1);
  let procs = Array.copy cfg.procs in
  let mid_call = match cfg.procs.(pid) with Running _ -> true | _ -> false in
  procs.(pid) <- Crashed mid_call;
  (* A crashed process never steps again, so where exactly it died inside its
     call is irrelevant to future behaviour: canonicalize its signature. *)
  let proc_sig = Array.copy cfg.proc_sig in
  proc_sig.(pid) <- 0;
  { cfg with procs; proc_sig }

let is_quiescent cfg =
  Array.for_all
    (function Idle | Crashed false -> true | Running _ | Crashed true -> false)
    cfg.procs

let filter_pids cfg f =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if f i cfg.procs.(i) then i :: acc else acc)
  in
  go (cfg.n - 1) []

let running cfg =
  filter_pids cfg (fun _ st -> match st with Running _ -> true | _ -> false)

let is_blocked cfg pid =
  match cfg.procs.(pid) with
  | Running (Prog.Await (r, g, _)) -> not (g cfg.regs.(r))
  | Running _ | Idle | Crashed _ -> false

let runnable cfg =
  filter_pids cfg (fun pid st ->
      (match st with Running _ -> true | _ -> false)
      && not (is_blocked cfg pid))

let idle cfg =
  filter_pids cfg (fun _ st -> match st with Idle -> true | _ -> false)

let never_invoked cfg =
  filter_pids cfg (fun i st ->
      match st with Idle -> cfg.calls.(i) = 0 | _ -> false)

let calls cfg pid =
  check_pid cfg pid;
  cfg.calls.(pid)

let run_solo ~fuel cfg pid =
  check_pid cfg pid;
  let rec go fuel cfg =
    match cfg.procs.(pid) with
    | Idle -> Some cfg
    | Crashed _ -> invalid_arg "Sim.run_solo: process has crashed"
    | Running _ ->
      if is_blocked cfg pid then None  (* solo: the guard can never turn true *)
      else if fuel = 0 then None
      else go (fuel - 1) (step cfg pid)
  in
  go fuel cfg

let block_write cfg pids =
  List.fold_left
    (fun cfg pid ->
       match poised cfg pid with
       | P_write _ | P_swap _ -> step cfg pid
       | P_idle | P_crashed | P_read _ | P_rmw _ | P_await _ | P_respond ->
         invalid_arg "Sim.block_write: process is not poised to write")
    cfg pids

let results cfg = List.rev cfg.rev_results

let result cfg op =
  List.find_map
    (fun ((o : History.op), r) -> if o = op then Some r else None)
    cfg.rev_results

let hist cfg = cfg.hist

let steps cfg = cfg.steps

let writes cfg = cfg.writes

let set_to_list flags =
  let acc = ref [] in
  for i = Array.length flags - 1 downto 0 do
    if flags.(i) then acc := i :: !acc
  done;
  !acc

let written_set cfg = set_to_list cfg.reg_written

let read_set cfg = set_to_list cfg.reg_read

let status_tag = function
  | Idle -> 1
  | Crashed false -> 2
  | Crashed true -> 3
  | Running _ -> 4

(* Top-level recursive helpers so that [fingerprint] allocates nothing on
   the DFS hot path: no closures, no refs, accumulators in registers (pinned
   by a [Gc.minor_words] test). *)
let rec fp_regs regs i h =
  if i >= Array.length regs then h
  else fp_regs regs (i + 1) (mix h (vhash (Array.unsafe_get regs i)))

(* The per-process summary: status, continuation signature, call count and
   happens-before accumulator.  The pid itself enters only through the fold
   position. *)
let proc_key cfg pid =
  mix
    (mix
       (mix (status_tag cfg.procs.(pid)) cfg.proc_sig.(pid))
       cfg.calls.(pid))
    cfg.hist_acc.(pid)

let rec fp_procs cfg pid h =
  if pid >= cfg.n then h else fp_procs cfg (pid + 1) (mix h (proc_key cfg pid))

let fingerprint cfg =
  mix (fp_procs cfg 0 (fp_regs cfg.regs 0 (mix 0x811c9dc5 cfg.n)))
    cfg.resp_count

(* Process-symmetry quotient.  A canonicalizer carries the interchangeability
   classes (pids running structurally identical programs; see
   {!Schedule.symmetry_classes}) plus preallocated scratch, so the per-state
   cost is one insertion sort of [n] small integers and no allocation.

   Registers are {e not} remapped: interchangeable processes run literally
   the same program, hence address the same register indices, so permuting
   them moves no register.  (Implementations that index registers by pid —
   Lamport, EFR — have per-pid program trees and thus singleton classes;
   the quotient is inert for them.)  Sorting each class's per-process
   summaries yields the lexicographically least representative of the
   permutation orbit directly — no enumeration of the permutation group. *)
type canonicalizer = {
  c_classes : int array;  (* pid -> class representative (smallest pid) *)
  c_keys : int array;  (* scratch: per-pid summaries *)
  c_slots : int array;  (* scratch: pids in canonical order *)
  c_perm : int array;  (* pid -> canonical slot, from the last call *)
  c_nontrivial : bool;
}

let canonicalizer ~classes =
  let n = Array.length classes in
  Array.iteri
    (fun pid c ->
       if c < 0 || c > pid || classes.(c) <> c then
         invalid_arg "Sim.canonicalizer: malformed class array")
    classes;
  { c_classes = Array.copy classes;
    c_keys = Array.make n 0;
    c_slots = Array.init n Fun.id;
    c_perm = Array.init n Fun.id;
    c_nontrivial =
      (let nt = ref false in
       Array.iteri (fun pid c -> if c <> pid then nt := true) classes;
       !nt) }

let canonical_perm c = c.c_perm

let canonical_fingerprint c cfg =
  let n = cfg.n in
  if Array.length c.c_classes <> n then
    invalid_arg "Sim.canonical_fingerprint: class array size mismatch";
  if not c.c_nontrivial then begin
    (* identity permutation is already in c_perm *)
    fingerprint cfg
  end
  else begin
    let keys = c.c_keys and slots = c.c_slots and cls = c.c_classes in
    for pid = 0 to n - 1 do
      keys.(pid) <- proc_key cfg pid;
      slots.(pid) <- pid
    done;
    (* Insertion sort by (class representative, summary, pid): pids stay
       grouped by class, tuple order within a class is canonical, and the
       final pid tiebreak makes the permutation a deterministic function of
       the configuration (needed so sleep-mask mapping is reproducible). *)
    for i = 1 to n - 1 do
      let p = slots.(i) in
      let kc = cls.(p) and kk = keys.(p) in
      let j = ref (i - 1) in
      while
        !j >= 0
        && (let q = slots.(!j) in
            cls.(q) > kc
            || (cls.(q) = kc && (keys.(q) > kk || (keys.(q) = kk && q > p))))
      do
        slots.(!j + 1) <- slots.(!j);
        decr j
      done;
      slots.(!j + 1) <- p
    done;
    let h = ref (fp_regs cfg.regs 0 (mix 0x811c9dc5 n)) in
    for s = 0 to n - 1 do
      let p = slots.(s) in
      c.c_perm.(p) <- s;
      h := mix (mix !h cls.(p)) keys.(p)
    done;
    mix !h cfg.resp_count
  end

let touched_count cfg =
  let count = ref 0 in
  for i = 0 to Array.length cfg.regs - 1 do
    if cfg.reg_read.(i) || cfg.reg_written.(i) then incr count
  done;
  !count
