type t = {
  impl : string;
  n : int;
  seed : int option;
  iteration : int option;
  schedule : Shm.Schedule.action list;
}

let schema_version = Obs.Metric.schema_version

let action_to_ocaml (a : Shm.Schedule.action) =
  match a with
  | Invoke p -> Printf.sprintf "Invoke %d" p
  | Step p -> Printf.sprintf "Step %d" p
  | Crash p -> Printf.sprintf "Crash %d" p

let to_ocaml t =
  "[ " ^ String.concat "; " (List.map action_to_ocaml t.schedule) ^ " ]"

let action_to_json (a : Shm.Schedule.action) : Obs.Json.t =
  let pair k p = Obs.Json.List [ String k; Int p ] in
  match a with
  | Invoke p -> pair "invoke" p
  | Step p -> pair "step" p
  | Crash p -> pair "crash" p

let action_of_json (j : Obs.Json.t) : (Shm.Schedule.action, string) result =
  match j with
  | List [ String "invoke"; Int p ] -> Ok (Invoke p)
  | List [ String "step"; Int p ] -> Ok (Step p)
  | List [ String "crash"; Int p ] -> Ok (Crash p)
  | _ -> Error ("bad action: " ^ Obs.Json.to_string j)

let to_json t : Obs.Json.t =
  let opt f = function None -> Obs.Json.Null | Some v -> f v in
  Obj
    [ ("schema_version", Int schema_version);
      ("kind", String "fuzz-repro");
      ("impl", String t.impl);
      ("n", Int t.n);
      ("seed", opt (fun s -> Obs.Json.Int s) t.seed);
      ("iteration", opt (fun i -> Obs.Json.Int i) t.iteration);
      ("schedule", List (List.map action_to_json t.schedule)) ]

let of_json (j : Obs.Json.t) : (t, string) result =
  let ( let* ) = Result.bind in
  let field name =
    match Obs.Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let* kind = field "kind" in
  let* () =
    match kind with
    | String "fuzz-repro" -> Ok ()
    | _ -> Error "not a fuzz-repro document"
  in
  let* impl =
    match field "impl" with
    | Ok (String s) -> Ok s
    | Ok _ -> Error "impl must be a string"
    | Error e -> Error e
  in
  let* n =
    match field "n" with
    | Ok (Int n) when n > 0 -> Ok n
    | Ok _ -> Error "n must be a positive integer"
    | Error e -> Error e
  in
  let opt_int name =
    match Obs.Json.member name j with
    | Some (Int i) -> Ok (Some i)
    | Some Null | None -> Ok None
    | Some _ -> Error (Printf.sprintf "%s must be an integer or null" name)
  in
  let* seed = opt_int "seed" in
  let* iteration = opt_int "iteration" in
  let* schedule_json =
    match field "schedule" with
    | Ok (List l) -> Ok l
    | Ok _ -> Error "schedule must be a list"
    | Error e -> Error e
  in
  let* schedule =
    List.fold_left
      (fun acc a ->
         let* acc = acc in
         let* a = action_of_json a in
         Ok (a :: acc))
      (Ok []) schedule_json
    |> Result.map List.rev
  in
  Ok { impl; n; seed; iteration; schedule }

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
       output_string oc (Obs.Json.pretty_to_string (to_json t));
       output_char oc '\n')

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e ->
    (* Sys_error messages lead with the path; callers prefix it too *)
    let prefix = path ^ ": " in
    Error
      (if String.starts_with ~prefix e then
         String.sub e (String.length prefix)
           (String.length e - String.length prefix)
       else e)
  | contents -> Result.bind (Obs.Json.of_string contents) of_json
