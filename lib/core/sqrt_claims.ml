(** Dynamic verification of the Section-6 analysis of Algorithm 4.

    The paper's space argument (Lemma 6.5 via Claims 6.1–6.13) partitions
    executions into phases and counts invalidation writes.  Phase starts are
    defined by internal scan events, which are not observable from register
    contents alone, so this module checks the claims through their
    register-observable consequences, using the proxy
    [rho(C) = number of non-Bot registers] (the true phase [phi] always
    satisfies [rho <= phi <= rho + 1]):

    - {b Claim 6.1 (a)/(d)}: the non-Bot registers always form a prefix,
      and no register ever reverts to Bot;
    - {b Claim 6.8} (proxy form): every write to register [j] (1-based)
      happens when [j <= rho + 1];
    - {b Claim 6.1 (b)}: all writes to one register leave distinct
      [last(seq)] values;
    - {b Lemma 6.5}: no register beyond [ceil (2 sqrt M)] is accessed, and
      the sentinel stays Bot, hence also [Phi (Phi + 1) / 2 <= 2 M]
      (the consequence of Claim 6.13 used in the space proof);
    - {b Lemma 6.14} (wait-freedom): every getTS finishes; step counts are
      reported. *)

type stats = {
  total_calls : int;
  m : int;  (** provisioned registers, ceil (2 sqrt M) *)
  phases : int;  (** final number of non-Bot registers *)
  max_written_index : int;  (** 1-based; 0 when nothing written *)
  total_writes : int;
  max_steps_per_call : int;
  violations : string list;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "calls=%d m=%d phases=%d max_written=%d writes=%d max_steps=%d \
     violations=%d"
    s.total_calls s.m s.phases s.max_written_index s.total_writes
    s.max_steps_per_call (List.length s.violations)

(* Number of leading non-Bot registers; also checks the prefix property. *)
let rho_of regs =
  let m = Array.length regs in
  let rec first_bot j =
    if j >= m then m else if Sqrt.is_bot regs.(j) then j else first_bot (j + 1)
  in
  let rho = first_bot 0 in
  let prefix_ok =
    let rec check j = j >= m || (Sqrt.is_bot regs.(j) && check (j + 1)) in
    check rho
  in
  (rho, prefix_ok)

let run_random ?invoke_prob ~n ~seed ~total_calls ~calls_per_proc () =
  let module S =
    Sqrt.With_calls (struct
      let total_calls = total_calls
    end)
  in
  let m = S.num_registers ~n in
  let supplier ~pid ~call = S.program ~n ~pid ~call in
  let rand = Random.State.make [| seed; n; total_calls; 13 |] in
  let cfg = Shm.Sim.create ~n ~num_regs:m ~init:Sqrt.Bot in
  let violations = ref [] in
  let bad fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  let remaining = Array.make n calls_per_proc in
  let budget = ref total_calls in
  let steps_in_call = Array.make n 0 in
  let max_steps = ref 0 in
  let last_ids : (int, Sqrt.id list) Hashtbl.t = Hashtbl.create 16 in
  let observe_write cfg reg =
    (* claims checked against the pre-write configuration *)
    let regs = Shm.Sim.regs cfg in
    let rho, prefix_ok = rho_of regs in
    if not prefix_ok then bad "claim 6.1(d): non-Bot registers not a prefix";
    if reg + 1 > rho + 1 then
      bad "claim 6.8: write to R[%d] while rho=%d" (reg + 1) rho
  in
  let observe_written cfg reg =
    (* claim 6.1(b): distinct last(seq) per register across writes;
       claim 6.1(a): no reversion to Bot *)
    match Shm.Sim.reg cfg reg with
    | Sqrt.Bot -> bad "claim 6.1(a): register R[%d] written to Bot" (reg + 1)
    | Sqrt.Cell c ->
      let last = Sqrt.last_id c.Sqrt.ids in
      let seen = Option.value (Hashtbl.find_opt last_ids reg) ~default:[] in
      if List.mem last seen then
        bad "claim 6.1(b): duplicate last(seq) on R[%d]" (reg + 1);
      Hashtbl.replace last_ids reg (last :: seen)
  in
  let rec loop cfg fuel =
    if fuel = 0 then (bad "driver fuel exhausted"; cfg)
    else
      let runnable = Shm.Sim.running cfg in
      let startable =
        if !budget <= 0 then []
        else List.filter (fun p -> remaining.(p) > 0) (Shm.Sim.idle cfg)
      in
      match runnable, startable with
      | [], [] -> cfg
      | _ ->
        let r = List.length runnable and s = List.length startable in
        let do_step =
          if r = 0 then false
          else if s = 0 then true
          else
            match invoke_prob with
            | Some p -> not (Random.State.float rand 1.0 < p)
            | None -> Random.State.int rand (r + s) < r
        in
        if do_step then begin
          let pid = List.nth runnable (Random.State.int rand r) in
          steps_in_call.(pid) <- steps_in_call.(pid) + 1;
          max_steps := max !max_steps steps_in_call.(pid);
          match Shm.Sim.poised cfg pid with
          | Shm.Sim.P_write (reg, _) ->
            observe_write cfg reg;
            let cfg = Shm.Sim.step cfg pid in
            observe_written cfg reg;
            loop cfg (fuel - 1)
          | Shm.Sim.P_respond ->
            steps_in_call.(pid) <- 0;
            loop (Shm.Sim.step cfg pid) (fuel - 1)
          | _ -> loop (Shm.Sim.step cfg pid) (fuel - 1)
        end
        else begin
          let pid = List.nth startable (Random.State.int rand s) in
          remaining.(pid) <- remaining.(pid) - 1;
          decr budget;
          loop
            (Shm.Sim.invoke cfg ~pid ~program:(fun ~call ->
                 supplier ~pid ~call))
            (fuel - 1)
        end
  in
  let cfg = loop cfg (1_000_000 + (total_calls * 100 * m * m)) in
  let regs = Shm.Sim.regs cfg in
  let rho, _ = rho_of regs in
  let calls_done = total_calls - !budget in
  (* Lemma 6.5 consequences. *)
  let max_written =
    match List.rev (Shm.Sim.written_set cfg) with [] -> 0 | r :: _ -> r + 1
  in
  if max_written > m then bad "lemma 6.5: wrote beyond provisioned registers";
  if not (Sqrt.is_bot regs.(m - 1)) then bad "lemma 6.5: sentinel was written";
  if rho * (rho + 1) / 2 > 2 * calls_done then
    bad "claim 6.13 consequence: sum of phases %d exceeds 2M=%d"
      (rho * (rho + 1) / 2) (2 * calls_done);
  (* Timestamp correctness of the run, for good measure. *)
  (match Checker.check_sim (module S) cfg with
   | Ok _ -> ()
   | Error v -> bad "timestamp violation: %a" Checker.pp_violation v);
  { total_calls = calls_done;
    m;
    phases = rho;
    max_written_index = max_written;
    total_writes = Shm.Sim.writes cfg;
    max_steps_per_call = !max_steps;
    violations = !violations }
