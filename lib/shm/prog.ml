type ('v, 'a) t =
  | Done of 'a
  | Read of int * ('v -> ('v, 'a) t)
  | Write of int * 'v * (unit -> ('v, 'a) t)
  | Swap of int * 'v * ('v -> ('v, 'a) t)
  | Rmw of int * ('v -> 'v) * ('v -> ('v, 'a) t)
  | Await of int * ('v -> bool) * ('v -> ('v, 'a) t)

let return x = Done x

let rec bind p f =
  match p with
  | Done x -> f x
  | Read (r, k) -> Read (r, fun v -> bind (k v) f)
  | Write (r, v, k) -> Write (r, v, fun () -> bind (k ()) f)
  | Swap (r, v, k) -> Swap (r, v, fun old -> bind (k old) f)
  | Rmw (r, u, k) -> Rmw (r, u, fun old -> bind (k old) f)
  | Await (r, g, k) -> Await (r, g, fun v -> bind (k v) f)

let map f p = bind p (fun x -> Done (f x))

let read r = Read (r, fun v -> Done v)

let write r v = Write (r, v, fun () -> Done ())

let swap r v = Swap (r, v, fun old -> Done old)

let rmw r u = Rmw (r, u, fun old -> Done old)

let cas ?(eq = ( = )) r ~expect ~desired =
  Rmw
    ( r,
      (fun cur -> if eq cur expect then desired else cur),
      fun old -> Done (eq old expect) )

let await r g = Await (r, g, fun v -> Done v)

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) p f = map f p
end

let rec fold_range ~lo ~hi ~init f =
  if lo > hi then Done init
  else bind (f init lo) (fun acc -> fold_range ~lo:(lo + 1) ~hi ~init:acc f)

let iter_range ~lo ~hi f =
  fold_range ~lo ~hi ~init:() (fun () i -> f i)

(* Each read's continuation builds the next read node itself, so the range
   costs one node per register and nothing is rebuilt by a [bind]. *)
let fold_reads ~lo ~hi ~init f k =
  let rec go i acc =
    if i > hi then k acc else Read (i, fun v -> go (i + 1) (f acc v))
  in
  go lo init

let rec map_reg f = function
  | Done x -> Done x
  | Read (r, k) -> Read (f r, fun v -> map_reg f (k v))
  | Write (r, v, k) -> Write (f r, v, fun () -> map_reg f (k ()))
  | Swap (r, v, k) -> Swap (f r, v, fun old -> map_reg f (k old))
  | Rmw (r, u, k) -> Rmw (f r, u, fun old -> map_reg f (k old))
  | Await (r, g, k) -> Await (f r, g, fun v -> map_reg f (k v))

let rec embed ~inj ~prj = function
  | Done x -> Done x
  | Read (r, k) -> Read (r, fun w -> embed ~inj ~prj (k (prj w)))
  | Write (r, v, k) -> Write (r, inj v, fun () -> embed ~inj ~prj (k ()))
  | Swap (r, v, k) -> Swap (r, inj v, fun old -> embed ~inj ~prj (k (prj old)))
  | Rmw (r, u, k) ->
    Rmw
      ( r,
        (fun w -> inj (u (prj w))),
        fun old -> embed ~inj ~prj (k (prj old)) )
  | Await (r, g, k) ->
    Await (r, (fun w -> g (prj w)), fun v -> embed ~inj ~prj (k (prj v)))

(* Two independently seeded polymorphic hashes of the whole program tree.
   The traversal descends into closure environments, so programs built from
   the same code with the same captured values (e.g. the same [mine] index)
   key equal, while any difference in structure, captured data or code
   pointer keys different.  Equality of keys is therefore "structurally the
   same program" up to a ~2^-60 double-hash collision — the same trust level
   as the fingerprint-based state deduplication that consumes it.  The
   absolute key values depend on code addresses and are only meaningful
   within one process: compare keys, never persist them. *)
let structural_key p =
  (Hashtbl.seeded_hash_param 1000 1000 0x9e37 p,
   Hashtbl.seeded_hash_param 1000 1000 0x85eb p)

let run_pure ~regs p =
  let rec go ops = function
    | Done x -> (x, ops)
    | Read (r, k) -> go (ops + 1) (k regs.(r))
    | Write (r, v, k) ->
      regs.(r) <- v;
      go (ops + 1) (k ())
    | Swap (r, v, k) ->
      let old = regs.(r) in
      regs.(r) <- v;
      go (ops + 1) (k old)
    | Rmw (r, u, k) ->
      let old = regs.(r) in
      regs.(r) <- u old;
      go (ops + 1) (k old)
    | Await (r, g, k) ->
      (* Solo execution: nobody else can make the guard true, so a false
         guard is a deadlock, not a wait. *)
      let v = regs.(r) in
      if not (g v) then invalid_arg "Prog.run_pure: await guard false (solo)";
      go (ops + 1) (k v)
  in
  go 0 p
