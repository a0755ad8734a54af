type ('v, 'r) outcome = {
  final_cfg : ('v, 'r) Shm.Sim.t;
  k : int;
  covered : int;
  signature : int array;
  schedule_length : int;
}

let ( let* ) = Result.bind

(* Result of Lemma 3.1: two (3,k)-configurations with equal signature.  The
   fields describe the schedule gamma_1 from [c0] to [c1]: three block
   writes by [b0], [b1], [b2] (each covering R3(c0)) followed by [eta]. *)
type ('v, 'r) lemma31_result = {
  gamma0 : Shm.Schedule.action list;  (* D -> C0 *)
  c0 : ('v, 'r) Shm.Sim.t;
  b0 : int list;
  b1 : int list;
  b2 : int list;
  eta : Shm.Schedule.action list;
}

let run ?(sig_cap = 12) ~fuel ~supplier ~cfg ~k () =
  let n = Shm.Sim.n cfg in
  if 2 * k > n then
    invalid_arg "Longlived_adversary.run: need n >= 2k processes";
  if not (Shm.Sim.is_quiescent cfg) then
    invalid_arg "Longlived_adversary.run: initial configuration not quiescent";
  (* build k d: P_{2k}-only schedule sigma with sigma(d) a
     (3,k)-configuration; returns the actions and the final config. *)
  let rec build k d : (Shm.Schedule.action list * _ Shm.Sim.t, string) result =
    if not (Shm.Sim.is_quiescent d) then Error "build: non-quiescent input"
    else if k = 0 then Ok ([], d)
    else
      let* l31 = lemma31 (k - 1) d in
      let r3_c0 = Signature.r3 l31.c0 in
      let outside reg = not (List.mem reg r3_c0) in
      (* Probe processes p_{2k-2}, p_{2k-1} (0-based). *)
      let cand0 = (2 * k) - 2 and cand1 = (2 * k) - 1 in
      (* Each probe replays its solo run up to three times (record, check
         for an outside write, truncate at the first outside cover); a
         per-probe checkpoint cache makes the second and third passes
         lookups. *)
      let probe b cand =
        let cfg_b = Shm.Sim.block_write l31.c0 b in
        let cache = Exec_util.Cache.create supplier ~base:cfg_b in
        match Exec_util.solo_complete ~fuel cache ~prefix:[] ~pid:cand with
        | None -> Error (Printf.sprintf "p%d: getTS did not terminate" cand)
        | Some (_, acts) ->
          Ok (Exec_util.wrote_outside cache acts ~outside, acts, cache)
      in
      let* w0, acts0, cache0 = probe l31.b0 cand0 in
      let* chosen =
        if w0 then Ok (l31.b0, l31.b1, cand0, acts0, cache0)
        else
          let* w1, acts1, cache1 = probe l31.b1 cand1 in
          if w1 then Ok (l31.b1, l31.b0, cand1, acts1, cache1)
          else
            Error
              "Lemma 2.1 violated during Lemma 3.2 induction: neither probe \
               wrote outside R3(C0)"
      in
      let b_i, b_other, cand, cand_acts, cand_cache = chosen in
      let* lambda =
        match
          Exec_util.truncate_at_cover_outside cand_cache cand_acts
            ~pid:cand ~outside
        with
        | Some prefix -> Ok prefix
        | None ->
          Error
            (Printf.sprintf
               "p%d wrote outside R3(C0) but never covered outside it" cand)
      in
      (* The spliced schedule: pi_Bi, lambda, pi_B(1-i), pi_B2, eta. *)
      let tail_actions =
        Exec_util.block_actions b_i
        @ lambda
        @ Exec_util.block_actions b_other
        @ Exec_util.block_actions l31.b2
        @ l31.eta
      in
      let actions = l31.gamma0 @ tail_actions in
      let* final =
        match Exec_util.apply supplier l31.c0 tail_actions with
        | cfg -> Ok cfg
        | exception Invalid_argument msg ->
          Error ("replay diverged during splice: " ^ msg)
      in
      if Signature.is_3k final ~k then Ok (actions, final)
      else
        Error
          (Format.asprintf
             "spliced configuration is not a (3,%d)-configuration: sig=%a" k
             Signature.pp (Signature.signature final))
  (* lemma31 k d: find C0, C1 = gamma1(C0), both (3,k)-configurations with
     sig(C0) = sig(C1), gamma1 = pi_B0 pi_B1 pi_B2 eta. *)
  and lemma31 k d : (_ lemma31_result, string) result =
    let* acts0, e0 = build k d in
    (* Iterate E_{i+1} = lambda_i delta_i (E_i); keep (sig, index, per-step
       schedules) so that a repeated signature yields gamma0/gamma1. *)
    let rec iterate i seen cur cur_acts_from_d steps =
      (* [steps] collects, oldest first:
         (blocks (b0,b1,b2), lambda_tail, delta, e_next) per iterate. *)
      if i > sig_cap then
        Error
          (Printf.sprintf
             "Lemma 3.1: no repeated signature within %d iterations" sig_cap)
      else
        let sg = Signature.signature cur in
        match
          List.find_opt (fun (sg', _, _, _) -> sg' = sg) seen
        with
        | Some (_, j_cfg, j_acts, j_index) ->
          (* C0 = E_j, C1 = current.  gamma1 starts with the block writes of
             iterate j. *)
          let rec drop_until idx = function
            | steps when idx = 0 -> steps
            | _ :: rest -> drop_until (idx - 1) rest
            | [] -> []
          in
          let relevant = drop_until j_index (List.rev steps) in
          (match relevant with
           | [] -> Error "Lemma 3.1: internal bookkeeping error"
           | ((b0, b1, b2), lambda_tail, delta, _) :: later ->
             let eta =
               lambda_tail @ delta
               @ List.concat_map
                 (fun ((bb0, bb1, bb2), lt, dl, _) ->
                    Exec_util.block_actions bb0
                    @ Exec_util.block_actions bb1
                    @ Exec_util.block_actions bb2
                    @ lt @ dl)
                 later
             in
             (* C0 is the configuration checkpointed when iterate [j] pushed
                its signature — no replay of j_acts from d needed (replay is
                deterministic, so the checkpoint IS [apply supplier d
                j_acts]). *)
             let c0 = j_cfg in
             Ok { gamma0 = j_acts; c0; b0; b1; b2; eta })
        | None ->
          let r3 = Signature.r3 cur in
          let* b0, b1, b2 =
            if r3 = [] then Ok ([], [], [])
            else
              match Signature.transversals cur ~regs:r3 ~count:3 with
              | Some [ t0; t1; t2 ] -> Ok (t0, t1, t2)
              | Some _ -> assert false
              | None -> Error "Lemma 3.1: R3 not 3-covered"
          in
          let blocks =
            Exec_util.block_actions b0
            @ Exec_util.block_actions b1
            @ Exec_util.block_actions b2
          in
          let after_blocks = Exec_util.apply supplier cur blocks in
          let* finished, finish_acts =
            match Exec_util.finish_all ~fuel supplier after_blocks with
            | Some (c, a) -> Ok (c, a)
            | None -> Error "Lemma 3.1: finish_all ran out of fuel"
          in
          let* delta, e_next = build k finished in
          let lambda_tail = finish_acts in
          let step = ((b0, b1, b2), lambda_tail, delta, e_next) in
          iterate (i + 1)
            ((sg, cur, cur_acts_from_d, i) :: seen)
            e_next
            (cur_acts_from_d @ blocks @ lambda_tail @ delta)
            (step :: steps)
    in
    iterate 0 [] e0 acts0 []
  in
  let* actions, final = build k cfg in
  Ok
    { final_cfg = final;
      k;
      covered = Signature.covered_count final;
      signature = Signature.signature final;
      schedule_length = List.length actions }
