exception Starved

(* Continuations may be replayed from forked configurations during
   speculative executions, so no mutable state may be captured: views are
   accumulated as immutable lists and converted on completion. *)
let collect_then ~lo ~hi k =
  Shm.Prog.fold_reads ~lo ~hi ~init:[]
    (fun acc v -> v :: acc)
    (fun rev_view -> k (Array.of_list (List.rev rev_view)))

let collect ~lo ~hi = collect_then ~lo ~hi Shm.Prog.return

let views_equal equal a b =
  Array.length a = Array.length b
  && (let rec go i =
        i >= Array.length a || (equal a.(i) b.(i) && go (i + 1))
      in
      go 0)

let scan ?max_rounds ~equal ~lo ~hi () =
  let rec loop rounds prev =
    (match max_rounds with
     | Some m when rounds >= m -> raise Starved
     | _ -> ());
    collect_then ~lo ~hi (fun view ->
        match prev with
        | Some p when views_equal equal p view -> Shm.Prog.return view
        | _ -> loop (rounds + 1) (Some view))
  in
  loop 0 None
