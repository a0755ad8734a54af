(** Dynamic verification of the timestamp specification.

    Given the completed calls of an execution, each an interval on a
    clock, checks the paper's requirement (Section 2): for every pair of
    completed getTS instances [g1, g2] returning [t1, t2], if [g1]
    happens before [g2] then [compare t1 t2 = true] and
    [compare t2 t1 = false]. *)

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

type 'r timed = {
  td_pid : int;
  td_call : int;
  td_start : int;
  td_end : int;
  td_ts : 'r;
}

(* The permutations of [0 .. n-1] that order two columns of keys, ties
   in index order, through one count array.  A column whose keys span
   fewer than [2n] values, as the ticks of one counter do, takes one
   stable counting sort over [k - lo], [lo] its least key.  A wider one
   takes a least-significant-digit radix sort whose passes are stable
   counting sorts on 11-bit digits of [k - lo]: [k - lo] wraps past
   [max_int] when the keys span more than 2^62, but read as an unsigned
   63-bit number it is still the exact offset, and [lsr] takes that
   number apart, so a span of [b] bits takes ceil(b / 11) <= 6 passes.
   A stable sort has one result, so the two ways agree. *)
let digit_bits = 11

let radix = 1 lsl digit_bits

(* The least key and the span [hi - lo], in one pass. *)
let span_of keys =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k < !lo then lo := k;
    if k > !hi then hi := k
  done;
  (!lo, !hi - !lo)

(* [span] is negative when it wraps past [max_int]. *)
let dense n span = span >= 0 && span < 2 * n

(* Turns the counts [count.(0 .. width - 1)] into each digit's first
   position. *)
let offsets count width =
  let total = ref 0 in
  for d = 0 to width - 1 do
    let c = count.(d) in
    count.(d) <- !total;
    total := !total + c
  done

(* One counting sort over [count.(0 .. span)]: count, offsets, then
   scatter the calls straight from index order. *)
let counting_sort keys ~lo ~span count perm =
  Array.fill count 0 (span + 1) 0;
  for i = 0 to Array.length keys - 1 do
    let d = keys.(i) - lo in
    count.(d) <- count.(d) + 1
  done;
  offsets count (span + 1);
  for i = 0 to Array.length keys - 1 do
    let d = keys.(i) - lo in
    perm.(count.(d)) <- i;
    count.(d) <- count.(d) + 1
  done

(* The passes alternate between [perm] and a second array, starting in
   whichever makes the last one land in [perm]; the first scatters the
   calls from index order. *)
let radix_sort keys ~lo ~span count perm =
  let n = Array.length keys in
  let passes = ref 0 and rest = ref span in
  while !rest <> 0 do
    incr passes;
    rest := !rest lsr digit_bits
  done;
  let other = Array.make n 0 and mask = radix - 1 in
  for p = 0 to !passes - 1 do
    let dst = if (!passes - p) land 1 = 1 then perm else other in
    let src = if dst == perm then other else perm in
    let s = p * digit_bits in
    Array.fill count 0 radix 0;
    for i = 0 to n - 1 do
      let d = ((keys.(i) - lo) lsr s) land mask in
      count.(d) <- count.(d) + 1
    done;
    offsets count radix;
    for k = 0 to n - 1 do
      let i = if p = 0 then k else src.(k) in
      let d = ((keys.(i) - lo) lsr s) land mask in
      dst.(count.(d)) <- i;
      count.(d) <- count.(d) + 1
    done
  done

let sort_both a b =
  let n = Array.length a in
  let lo_a, span_a = span_of a and lo_b, span_b = span_of b in
  let width span = if dense n span then span + 1 else radix in
  let count = Array.make (Int.max (width span_a) (width span_b)) 0 in
  let sort keys ~lo ~span =
    let perm = Array.make n 0 in
    (if dense n span then counting_sort else radix_sort) keys ~lo ~span count
      perm;
    perm
  in
  (sort a ~lo:lo_a ~span:span_a, sort b ~lo:lo_b ~span:span_b)

(* Sorting by end tick and sweeping by start tick: for [o2] in ascending
   start order, the calls with an end tick below [o2]'s start form a
   growing prefix of the end order, and the pair count is the sum of the
   prefix lengths.  [add] folds each call that joins the prefix into a
   summary of the prefix's maximal elements, and [against] checks [o2]
   against the summary alone (checker.mli says why that is exact): [top]
   for a strict weak order, the frontier for a strict partial order.  A
   call joins the frontier unless it is below a frontier element, and
   evicts the elements below it, so every prefix element stays a
   frontier element or below one. *)
let check_calls (type r) ~order ~compare_ts
    ~(pp : Format.formatter -> r -> unit) ~(op : int -> Shm.History.op)
    ~(starts : int array) ~(ends : int array) (ts : r array) :
    (int, violation) result =
  let n = Array.length ts in
  if Array.length starts <> n || Array.length ends <> n then
    invalid_arg "Checker.check_calls: columns of different lengths";
  let exception Violation of violation in
  let violation i j reason =
    let str k = Format.asprintf "%a" pp ts.(k) in
    Violation { op1 = op i; op2 = op j; t1 = str i; t2 = str j; reason }
  in
  (* One counter hands out every end tick, so two calls never share
     one. *)
  let shared_end = "shares its end tick with" in
  let below i j = compare_ts ts.(i) ts.(j) in
  (* [i] happens before [j] *)
  let check_pair i j =
    if not (below i j) then
      raise (violation i j "happens before, but compare(t1,t2)=false");
    if below j i then
      raise (violation i j "happens before, but compare(t2,t1)=true")
  in
  let sweep ~add ~against =
    let by_end, by_start = sort_both ends starts in
    for k = 1 to n - 1 do
      if ends.(by_end.(k - 1)) = ends.(by_end.(k)) then
        raise (violation by_end.(k - 1) by_end.(k) shared_end)
    done;
    let pairs = ref 0 and prefix = ref 0 in
    for k = 0 to n - 1 do
      let o2 = by_start.(k) in
      while !prefix < n && ends.(by_end.(!prefix)) < starts.(o2) do
        add by_end.(!prefix);
        incr prefix
      done;
      pairs := !pairs + !prefix;
      against o2
    done;
    !pairs
  in
  try
    for i = 0 to n - 1 do
      if starts.(i) > ends.(i) then
        raise (violation i i "start tick exceeds end tick at");
      if below i i then raise (violation i i "compare is not irreflexive at")
    done;
    match order with
    | `Strict_weak ->
      let top = ref (-1) in
      Ok
        (sweep
           ~add:(fun x -> if !top < 0 || below !top x then top := x)
           ~against:(fun o2 -> if !top >= 0 then check_pair !top o2))
    | `Strict_partial ->
      let front = Array.make n 0 and size = ref 0 in
      let dominated x =
        let k = ref 0 in
        while !k < !size && not (below x front.(!k)) do
          incr k
        done;
        !k < !size
      in
      let add x =
        if not (dominated x) then begin
          let kept = ref 0 in
          for k = 0 to !size - 1 do
            if not (below front.(k) x) then begin
              front.(!kept) <- front.(k);
              incr kept
            end
          done;
          front.(!kept) <- x;
          size := !kept + 1
        end
      in
      Ok
        (sweep ~add ~against:(fun o2 ->
             for k = 0 to !size - 1 do
               check_pair front.(k) o2
             done))
    | `General ->
      let pairs = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if ends.(i) < starts.(j) then begin
            incr pairs;
            check_pair i j
          end
          else if i < j && ends.(i) = ends.(j) then
            raise (violation i j shared_end)
        done
      done;
      (* No strict order holds both ways, so a compare that does, even on
         a concurrent pair that happens-before leaves unconstrained, is
         consistent with no execution order. *)
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if below i j && below j i then
            raise (violation i j "compare holds symmetrically between")
        done
      done;
      Ok !pairs
  with Violation v -> Error v

let check_timed ~order ~compare_ts ~pp records =
  let calls = Array.of_list records in
  let col f = Array.map f calls in
  let op i =
    let r = calls.(i) in
    { Shm.History.pid = r.td_pid; call = r.td_call }
  in
  check_calls ~order ~compare_ts ~pp ~op
    ~starts:(col (fun r -> r.td_start))
    ~ends:(col (fun r -> r.td_end))
    (col (fun r -> r.td_ts))

(* A history gives every event a time of its own, so no two responses
   share one and each follows its invocation: a sound tick witness. *)
let check_sim (type v r)
    (module T : Intf.S with type value = v and type result = r)
    (cfg : (v, r) Shm.Sim.t) : (int, violation) result =
  let hist = Shm.Sim.hist cfg in
  let call ((op : Shm.History.op), td_ts) =
    match Shm.History.interval hist op with
    | Some (td_start, Some td_end) ->
      { td_pid = op.pid; td_call = op.call; td_start; td_end; td_ts }
    | _ -> invalid_arg "Checker.check_sim: a result with no response"
  in
  check_timed ~order:`General ~compare_ts:T.compare_ts ~pp:T.pp_ts
    (List.map call (Shm.Sim.results cfg))
