open Shm.Prog.Syntax

type 'a cell = {
  value : 'a;
  seq : int;
  view : 'a array option;  (* snapshot embedded by the writing update *)
}

let init v = { value = v; seq = 0; view = None }

let value c = c.value

let seq c = c.seq

let values cells = Array.map (fun c -> c.value) cells

let same_seqs a b =
  let rec go i =
    i >= Array.length a || (a.(i).seq = b.(i).seq && go (i + 1))
  in
  go 0

(* Processes that moved between two collects. *)
let movers a b =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if a.(i).seq <> b.(i).seq then i :: acc else acc)
  in
  go (Array.length a - 1) []

(* Wait-free scan: double collect, or borrow the view of a process seen
   moving twice.  [moved] counts moves per process across collect pairs; it
   is threaded as an immutable list of counts to keep continuations pure. *)
let scan ~n =
  let rec loop prev moved =
    Collect.collect_then ~lo:0 ~hi:(n - 1) @@ fun cur ->
    match prev with
    | None -> loop (Some cur) moved
    | Some p ->
      if same_seqs p cur then Shm.Prog.return (values cur)
      else
        let moved =
          List.fold_left
            (fun moved j ->
               List.map (fun (i, c) -> if i = j then (i, c + 1) else (i, c))
                 moved)
            moved (movers p cur)
        in
        (match
           List.find_opt
             (fun (j, c) -> c >= 2 && cur.(j).view <> None)
             moved
         with
         | Some (j, _) ->
           (match cur.(j).view with
            | Some view -> Shm.Prog.return (Array.copy view)
            | None -> assert false)
         | None -> loop (Some cur) moved)
  in
  loop None (List.init n (fun i -> (i, 0)))

let update ~n ~me v =
  let* view = scan ~n in
  let* old = Shm.Prog.read me in
  Shm.Prog.write me { value = v; seq = old.seq + 1; view = Some view }

let pp_cell pp_v ppf c =
  Format.fprintf ppf "@[<h>{v=%a; seq=%d}@]" pp_v c.value c.seq
