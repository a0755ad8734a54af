let describe ?pp_value cfg pid =
  let value v =
    match pp_value with
    | Some pp -> Format.asprintf " <- %a" pp v
    | None -> ""
  in
  match Sim.poised cfg pid with
  | Sim.P_read r -> Printf.sprintf "read R[%d]" (r + 1)
  | Sim.P_write (r, v) -> Printf.sprintf "write R[%d]%s" (r + 1) (value v)
  | Sim.P_swap (r, v) -> Printf.sprintf "swap R[%d]%s" (r + 1) (value v)
  | Sim.P_rmw r -> Printf.sprintf "rmw R[%d]" (r + 1)
  | Sim.P_await (r, true) -> Printf.sprintf "await R[%d] (ready)" (r + 1)
  | Sim.P_await (r, false) -> Printf.sprintf "await R[%d] (blocked)" (r + 1)
  | Sim.P_respond -> "respond"
  | Sim.P_idle -> "idle"
  | Sim.P_crashed -> "crashed"

let render ?pp_value ~supplier cfg actions =
  let buf = Buffer.create 256 in
  let _ =
    List.fold_left
      (fun cfg action ->
         (match action with
          | Schedule.Step pid ->
            Buffer.add_string buf
              (Printf.sprintf "step   p%-3d %s\n" pid
                 (describe ?pp_value cfg pid))
          | Schedule.Invoke pid ->
            Buffer.add_string buf
              (Printf.sprintf "invoke p%-3d call %d\n" pid (Sim.calls cfg pid))
          | Schedule.Crash pid ->
            Buffer.add_string buf (Printf.sprintf "crash  p%-3d\n" pid));
         Schedule.apply supplier cfg [ action ])
      cfg actions
  in
  Buffer.contents buf
