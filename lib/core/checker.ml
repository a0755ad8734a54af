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

(* The permutation of [0 .. n-1] that orders [keys], ties in index
   order: a least-significant-digit radix sort whose passes are stable
   counting sorts on 11-bit digits of [k - lo], [lo] the least key.
   [k - lo] wraps past [max_int] when the keys span more than 2^62, but
   read as an unsigned 63-bit number it is still the exact offset, and
   [lsr] takes that number apart; so every pass is a counting sort over
   2048 buckets, and a span of [b] bits takes ceil(b / 11) <= 6 passes. *)
let digit_bits = 11

let sort_by keys =
  let n = Array.length keys in
  let src = ref (Array.init n Fun.id) in
  if n > 1 then begin
    let lo = Array.fold_left Int.min max_int keys in
    let span = ref (Array.fold_left Int.max min_int keys - lo) in
    let dst = ref (Array.make n 0) in
    let count = Array.make (1 lsl digit_bits) 0 in
    let mask = (1 lsl digit_bits) - 1 in
    let shift = ref 0 in
    while !span <> 0 do
      let a = !src and b = !dst and s = !shift in
      Array.fill count 0 (Array.length count) 0;
      for i = 0 to n - 1 do
        let d = ((keys.(i) - lo) lsr s) land mask in
        count.(d) <- count.(d) + 1
      done;
      let total = ref 0 in
      for d = 0 to mask do
        let c = count.(d) in
        count.(d) <- !total;
        total := !total + c
      done;
      for k = 0 to n - 1 do
        let i = a.(k) in
        let d = ((keys.(i) - lo) lsr s) land mask in
        b.(count.(d)) <- i;
        count.(d) <- count.(d) + 1
      done;
      src := b;
      dst := a;
      shift := s + digit_bits;
      span := !span lsr digit_bits
    done
  end;
  !src

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
    let by_end = sort_by ends and by_start = sort_by starts in
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
