type ('v, 'r) lemma41_result = {
  final : ('v, 'r) Shm.Sim.t;
  combined : Shm.Schedule.action list;
  second_block_start : int;
  sigma_participants : int list;
  sigma'_participants : int list;
  excluded : int;
}

(* One side of the Lemma 4.1 induction: the schedule delta^k_i together with
   its block write B_i.  [actions] is meaningful only as the execution
   (block_write C block; actions).  Participants appear in order; the last
   one is the only one whose getTS ran to completion (all earlier ones are
   truncated at the point where they cover a register outside R).  [cache]
   holds replay checkpoints from the side's fixed base [block_write C
   block]; each round's truncation and extension are prefix-compatible with
   the previous replay, so re-simulation only covers new solo steps. *)
type ('v, 'r) side = {
  block : int list;
  cache : ('v, 'r) Exec_util.Cache.t;
  actions : Shm.Schedule.action list;
  participants : int list;  (* reversed: head = last participant *)
  last_start : int;  (* index in [actions] where the last participant begins *)
}

let last_participant s =
  match s.participants with
  | [] -> invalid_arg "Oneshot_adversary: side with no participants"
  | p :: _ -> p

let take k l = List.filteri (fun i _ -> i < k) l

let ( let* ) = Result.bind

let lemma41 ~fuel ~supplier ~cfg ~b0 ~b1 ~u ~r =
  let outside reg = not (List.mem reg r) in
  Exec_util.assert_block cfg b0;
  Exec_util.assert_block cfg b1;
  if List.length u < 2 then invalid_arg "Oneshot_adversary.lemma41: |U| < 2";
  List.iter
    (fun p ->
       if Shm.Sim.calls cfg p > 0 || Shm.Sim.poised cfg p <> Shm.Sim.P_idle
       then invalid_arg "Oneshot_adversary.lemma41: U not idle")
    u;
  let base block = Shm.Sim.block_write cfg block in
  (* Base case: delta^1_i is a solo complete getTS by u_i after pi_Bi. *)
  let init_side block pid =
    let cache = Exec_util.Cache.create supplier ~base:(base block) in
    match Exec_util.solo_complete ~fuel cache ~prefix:[] ~pid with
    | None -> Error (Printf.sprintf "p%d: solo getTS did not terminate" pid)
    | Some (_, acts) ->
      Ok { block; cache; actions = acts; participants = [ pid ]; last_start = 0 }
  in
  (* Which side's replay writes outside R?  By the induction invariant only
     the last participant can, so attribution is unnecessary.  Memoized:
     every round re-asks the question about both sides but modifies only
     one, so the unchanged side answers from the memo. *)
  let wo_memo = Exec_util.Fp_memo.create () in
  let side_writes_outside s =
    Exec_util.Fp_memo.memo wo_memo (Exec_util.Cache.base s.cache) s.actions
      (fun () -> Exec_util.wrote_outside s.cache s.actions ~outside)
  in
  let choose_j s0 s1 =
    if side_writes_outside s0 then Ok 0
    else if side_writes_outside s1 then Ok 1
    else
      Error
        "Lemma 2.1 violated during Lemma 4.1 induction: neither side wrote \
         outside R"
  in
  (* Truncate the last participant of [s] at the earliest point where it
     covers a register outside R. *)
  let truncate_side s =
    let q = last_participant s in
    match
      Exec_util.truncate_at_cover_outside s.cache s.actions ~pid:q ~outside
    with
    | None ->
      Error
        (Printf.sprintf
           "p%d wrote outside R but never covered a register outside R" q)
    | Some prefix -> Ok { s with actions = prefix }
  in
  (* Append a solo complete getTS of [pid] to (truncated) side [s]. *)
  let extend_side s pid =
    match Exec_util.solo_complete ~fuel s.cache ~prefix:s.actions ~pid with
    | None -> Error (Printf.sprintf "p%d: solo getTS did not terminate" pid)
    | Some (_, acts) ->
      Ok
        { s with
          actions = s.actions @ acts;
          participants = pid :: s.participants;
          last_start = List.length s.actions }
  in
  match u with
  | [] | [ _ ] -> assert false
  | u0 :: u1 :: rest ->
    let* s0 = init_side b0 u0 in
    let* s1 = init_side b1 u1 in
    (* Inductive extension over the remaining processes of U. *)
    let* s0, s1 =
      List.fold_left
        (fun acc pid ->
           let* s0, s1 = acc in
           let* j = choose_j s0 s1 in
           if j = 0 then
             let* s0 = truncate_side s0 in
             let* s0 = extend_side s0 pid in
             Ok (s0, s1)
           else
             let* s1 = truncate_side s1 in
             let* s1 = extend_side s1 pid in
             Ok (s0, s1))
        (Ok (s0, s1))
        rest
    in
    (* Final application of Lemma 2.1: truncate the chosen side, drop the
       last participant of the other side entirely. *)
    let* j = choose_j s0 s1 in
    let chosen, other = if j = 0 then (s0, s1) else (s1, s0) in
    let* chosen = truncate_side chosen in
    let excluded = last_participant other in
    let other =
      { other with
        actions = take other.last_start other.actions;
        participants = List.tl other.participants }
    in
    (* Relabel so that sigma is the larger side (postcondition e). *)
    let sigma, sigma' =
      if List.length chosen.participants >= List.length other.participants
      then (chosen, other)
      else (other, chosen)
    in
    let combined =
      Exec_util.block_actions sigma.block
      @ sigma.actions
      @ Exec_util.block_actions sigma'.block
      @ sigma'.actions
    in
    let second_block_start =
      List.length sigma.block + List.length sigma.actions
    in
    let final = Exec_util.apply supplier cfg combined in
    (* Verify postconditions (b), (d), (e) on the actual configuration. *)
    let participants = sigma.participants @ sigma'.participants in
    let bad =
      List.filter
        (fun p ->
           match Shm.Sim.covers final p with
           | Some reg -> not (outside reg)
           | None -> true)
        participants
    in
    if bad <> [] then
      Error
        (Printf.sprintf
           "Lemma 4.1 postcondition (b) failed: processes [%s] do not cover \
            outside R in the final configuration"
           (String.concat ";" (List.map string_of_int bad)))
    else if List.length participants <> List.length u - 1 then
      Error "Lemma 4.1 postcondition (d) failed"
    else if
      List.length sigma.participants < List.length u / 2
      || List.length sigma'.participants > List.length u / 2
    then Error "Lemma 4.1 postcondition (e) failed"
    else
      Ok
        { final;
          combined;
          second_block_start;
          sigma_participants = List.rev sigma.participants;
          sigma'_participants = List.rev sigma'.participants;
          excluded }

type case = Initial | Case1 | Case2

type round = {
  index : int;
  nu : int;
  q : int list;
  case : case;
  j : int;
  l : int;
  prefix_len : int;
  idle_left : int;
  covered : int;
  sig_after : int array;
}

type stop_reason =
  | L_minus_j_small
  | Too_few_idle
  | Stalled of string

type ('v, 'r) outcome = {
  final_cfg : ('v, 'r) Shm.Sim.t;
  rounds : round list;
  j_last : int;
  l_last : int;
  r_last : int list;
  stop : stop_reason;
  case2_count : int;
  max_covered : int;
}

(* The Q' condition of the construction: a set of nu registers outside R,
   each covered by at least (l - j - nu) processes.  Returns the largest
   viable nu with its witness set (the nu most-covered outside registers).
   Takes the covering vector rather than the configuration so the
   shortest-prefix search can feed it incrementally maintained signatures. *)
let find_q_sig sig_ ~r_set ~l ~j =
  let outside_regs =
    List.init (Array.length sig_) Fun.id
    |> List.filter (fun reg -> not (List.mem reg r_set))
    |> List.map (fun reg -> (reg, sig_.(reg)))
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  let viable nu =
    let threshold = l - j - nu in
    if threshold < 1 || List.length outside_regs < nu then None
    else
      let top = take nu outside_regs in
      if List.for_all (fun (_, c) -> c >= threshold) top then
        Some (List.sort Int.compare (List.map fst top))
      else None
  in
  let rec best nu acc =
    if nu > l - j - 1 then acc
    else best (nu + 1) (match viable nu with Some q -> Some (nu, q) | None -> acc)
  in
  best 1 None

let pp_case ppf = function
  | Initial -> Format.pp_print_string ppf "init"
  | Case1 -> Format.pp_print_string ppf "case1"
  | Case2 -> Format.pp_print_string ppf "case2"

let pp_round ppf r =
  Format.fprintf ppf
    "round %d: %a nu=%d Q={%s} j=%d l=%d prefix=%d idle=%d covered=%d"
    r.index pp_case r.case r.nu
    (String.concat "," (List.map string_of_int r.q))
    r.j r.l r.prefix_len r.idle_left r.covered

let pp_stop ppf = function
  | L_minus_j_small -> Format.pp_print_string ppf "l - j <= 2"
  | Too_few_idle -> Format.pp_print_string ppf "fewer than 2 idle processes"
  | Stalled msg -> Format.fprintf ppf "stalled: %s" msg

let run ?grid_width ~fuel ~supplier ~cfg () =
  let n = Shm.Sim.n cfg in
  let l0 = match grid_width with Some w -> w | None -> Bounds.grid_width n in
  (* Replay [actions] from [cfg] one action at a time, looking for the first
     prefix after which some Q' exists.  The covering vector is maintained
     incrementally (O(1) per action) instead of rescanned per prefix. *)
  let shortest_prefix cfg actions ~r_set ~l ~j =
    let inc = Signature.Incremental.create cfg in
    let rec go cfg len actions =
      match find_q_sig (Signature.Incremental.signature inc) ~r_set ~l ~j with
      | Some (nu, q) -> Some (cfg, len, nu, q)
      | None -> (
          match actions with
          | [] -> None
          | a :: rest ->
            let cfg' = Shm.Schedule.apply_action supplier cfg a in
            Signature.Incremental.advance inc cfg' a;
            go cfg' (len + 1) rest)
    in
    go cfg 0 actions
  in
  let rec loop cfg r_set j l rounds case2s max_cov index =
    let max_cov = max max_cov (Signature.covered_count cfg) in
    let finish stop =
      Ok
        { final_cfg = cfg;
          rounds = List.rev rounds;
          j_last = j;
          l_last = l;
          r_last = r_set;
          stop;
          case2_count = case2s;
          max_covered = max_cov }
    in
    if l - j <= 2 then finish L_minus_j_small
    else
      let u = Shm.Sim.never_invoked cfg in
      if List.length u < 2 then finish Too_few_idle
      else
        let blocks =
          if r_set = [] then Ok ([], [])
          else
            match Signature.transversals cfg ~regs:r_set ~count:3 with
            | Some [ t0; t1; _t2 ] -> Ok (t0, t1)
            | Some _ -> assert false
            | None -> Error "R_k lost 3-coverage"
        in
        match blocks with
        | Error e -> finish (Stalled e)
        | Ok (b0, b1) -> (
            match lemma41 ~fuel ~supplier ~cfg ~b0 ~b1 ~u ~r:r_set with
            | Error e -> finish (Stalled ("lemma 4.1: " ^ e))
            | Ok res -> (
                match
                  shortest_prefix cfg res.combined ~r_set ~l ~j
                with
                | None ->
                  finish
                    (Stalled
                       "no prefix reaches the Q' condition: writes spread \
                        over too many registers")
                | Some (cfg', prefix_len, nu, q) ->
                  (* Case 1: nu >= 2, or the prefix is within beta sigma so
                     only one block write to R_k executed.  Case 2 (nu = 1
                     and both block writes executed): l decreases by one. *)
                  let case, l' =
                    if nu >= 2 || prefix_len <= res.second_block_start then
                      (Case1, l)
                    else (Case2, l - 1)
                  in
                  let r_set' = List.sort_uniq Int.compare (q @ r_set) in
                  let j' = j + nu in
                  let round =
                    { index;
                      nu;
                      q;
                      case = (if index = 1 then Initial else case);
                      j = j';
                      l = l';
                      prefix_len;
                      idle_left = List.length (Shm.Sim.never_invoked cfg');
                      covered = Signature.covered_count cfg';
                      sig_after = Signature.signature cfg' }
                  in
                  let case2s =
                    if round.case = Case2 then case2s + 1 else case2s
                  in
                  loop cfg' r_set' j' l' (round :: rounds) case2s max_cov
                    (index + 1)))
  in
  loop cfg [] 0 l0 [] 0 0 1
