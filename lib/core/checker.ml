(** Dynamic verification of the timestamp specification.

    Given the history and the results of a simulated execution, checks the
    paper's requirement (Section 2): for every pair of completed getTS
    instances [g1, g2] returning [t1, t2], if [g1] happens before [g2] then
    [compare t1 t2 = true] and [compare t2 t1 = false]. *)

type violation = {
  op1 : Shm.History.op;
  op2 : Shm.History.op;
  t1 : string;
  t2 : string;
  reason : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "%a(->%s) %s %a(->%s)" Shm.History.pp_op v.op1 v.t1
    v.reason Shm.History.pp_op v.op2 v.t2

(* Also checks basic sanity of compare on each individual timestamp:
   irreflexivity, required for consistency with happens-before (take g1 = g2
   impossible, but compare t t = true for a timestamp issued twice would be
   suspicious); we check it because all the paper's compares are strict
   orders. *)
let check (type r) ~compare_ts ~(pp : Format.formatter -> r -> unit)
    ~(hist : Shm.History.t) ~(results : (Shm.History.op * r) list) :
  (int, violation) result =
  let str t = Format.asprintf "%a" pp t in
  let completed =
    List.filter_map
      (fun ((op : Shm.History.op), t) ->
         match Shm.History.interval hist op with
         | Some (_, Some _) -> Some (op, t)
         | _ -> None)
      results
  in
  let exception Violation of violation in
  try
    let pairs = ref 0 in
    List.iter
      (fun (op1, t1) ->
         List.iter
           (fun (op2, t2) ->
              if op1 <> op2 && Shm.History.happens_before hist op1 op2 then begin
                incr pairs;
                if not (compare_ts t1 t2) then
                  raise
                    (Violation
                       { op1; op2; t1 = str t1; t2 = str t2;
                         reason = "happens before, but compare(t1,t2)=false" });
                if compare_ts t2 t1 then
                  raise
                    (Violation
                       { op1; op2; t1 = str t1; t2 = str t2;
                         reason = "happens before, but compare(t2,t1)=true" })
              end)
           completed)
      completed;
    List.iter
      (fun (op, t) ->
         if compare_ts t t then
           raise
             (Violation
                { op1 = op; op2 = op; t1 = str t; t2 = str t;
                  reason = "compare is not irreflexive at" }))
      completed;
    (* Symmetry: no strict order holds both ways, and a compare that does
       (even on a concurrent pair, which happens-before leaves
       unconstrained) cannot be consistent with any execution order. *)
    let rec antisym = function
      | [] -> ()
      | (op1, t1) :: rest ->
        List.iter
          (fun (op2, t2) ->
             if compare_ts t1 t2 && compare_ts t2 t1 then
               raise
                 (Violation
                    { op1; op2; t1 = str t1; t2 = str t2;
                      reason = "compare holds symmetrically between" }))
          rest;
        antisym rest
    in
    antisym completed;
    Ok !pairs
  with Violation v -> Error v

type 'r timed = {
  td_pid : int;
  td_call : int;
  td_start : int;
  td_end : int;
  td_ts : 'r;
}

(* Sorting by end tick and scanning the other axis by start tick turns the
   naive all-pairs pass into a prefix scan: for [o2] in ascending start-tick
   order, the predecessors with [td_end < o2.td_start] form a growing prefix
   of the end-sorted array, so only happens-before-eligible pairs are ever
   compared.  Under a strict weak order the sweep also keeps [top], a
   maximal element of that prefix (replaced by [x] when [top < x]), and
   checks [o2] against [top] alone: every [x] of the prefix is below [top]
   or incomparable with it, so [top < o2] gives [x < o2] by transitivity
   or by transitivity of incomparability, and asymmetry gives
   [not (o2 < x)].  The pair count is the sum of the prefix lengths either
   way. *)
let check_timed (type r) ~order ~compare_ts
    ~(pp : Format.formatter -> r -> unit) (records : r timed list) :
  (int, violation) result =
  let str t = Format.asprintf "%a" pp t in
  let op r : Shm.History.op = { pid = r.td_pid; call = r.td_call } in
  let exception Violation of violation in
  let violation o1 o2 reason =
    Violation
      { op1 = op o1; op2 = op o2; t1 = str o1.td_ts; t2 = str o2.td_ts;
        reason }
  in
  (* [o1] happens before [o2] *)
  let check_pair o1 o2 =
    if not (compare_ts o1.td_ts o2.td_ts) then
      raise (violation o1 o2 "happens before, but compare(t1,t2)=false");
    if compare_ts o2.td_ts o1.td_ts then
      raise (violation o1 o2 "happens before, but compare(t2,t1)=true")
  in
  let strict_weak = match order with `Strict_weak -> true | `General -> false in
  try
    List.iter
      (fun r ->
         if compare_ts r.td_ts r.td_ts then
           raise (violation r r "compare is not irreflexive at"))
      records;
    let by_end = Array.of_list records in
    Array.sort (fun a b -> Int.compare a.td_end b.td_end) by_end;
    let by_start = Array.of_list records in
    Array.sort (fun a b -> Int.compare a.td_start b.td_start) by_start;
    let len = Array.length by_end in
    let pairs = ref 0 in
    let prefix = ref 0 in
    let top = ref 0 in
    Array.iter
      (fun o2 ->
         while !prefix < len && by_end.(!prefix).td_end < o2.td_start do
           if strict_weak
           && (!prefix = 0
               || compare_ts by_end.(!top).td_ts by_end.(!prefix).td_ts)
           then top := !prefix;
           incr prefix
         done;
         pairs := !pairs + !prefix;
         if strict_weak then begin
           if !prefix > 0 then check_pair by_end.(!top) o2
         end
         else
           for j = 0 to !prefix - 1 do
             check_pair by_end.(j) o2
           done)
      by_start;
    Ok !pairs
  with Violation v -> Error v

let check_sim (type v r)
    (module T : Intf.S with type value = v and type result = r)
    (cfg : (v, r) Shm.Sim.t) : (int, violation) result =
  check ~compare_ts:T.compare_ts ~pp:T.pp_ts ~hist:(Shm.Sim.hist cfg)
    ~results:(Shm.Sim.results cfg)
