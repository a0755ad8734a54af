(* Compact per-implementation timestamp codecs.

   The paper lets each timestamp object draw its timestamps from its own
   universe: Lamport's integers, the one-shot objects' pairs, EFR's
   tagged values, vectors.  Each codec here is that universe's wire
   form — a handful of LEB128 varints whose decoder checks every bound
   and never trusts a length it did not verify, so a server can parse
   [Compare] payloads from arbitrary peers.

   A codec is a record rather than a module so the zero-allocation hot
   path takes it as a value (no functor application per connection, no
   closure per stamp). *)

exception Malformed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

type 'r t = {
  c_name : string;
  c_size : 'r -> int;
  c_put : Bytes.t -> int -> 'r -> int;
  c_get : string -> int -> limit:int -> 'r * int;
}

let name c = c.c_name

(* ------------------------- varint primitives ----------------------- *)

(* LEB128 over the 63-bit pattern of an OCaml int ([lsr]-based, so
   negative ints — i.e. zigzagged values — encode as 9 bytes). *)

let uv_size v =
  let rec go v n = if v >= 0 && v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let put_uv b pos v =
  let p = ref pos and v = ref v in
  while !v < 0 || !v >= 0x80 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    incr p;
    v := !v lsr 7
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !v);
  !p + 1

(* Strict decode: at most 9 bytes (63 bits); a continuation bit on the
   9th byte is an overflow, not more data. *)
let get_uv s pos ~limit =
  if limit > String.length s then invalid_arg "Codec.get_uv: bad limit";
  let v = ref 0 and shift = ref 0 and p = ref pos and cont = ref true in
  while !cont do
    if !shift > 56 then fail "varint overflow";
    if !p >= limit then fail "truncated varint";
    let byte = Char.code (String.unsafe_get s !p) in
    incr p;
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := byte >= 0x80
  done;
  (!v, !p)

(* Zigzag so signed ints stay short when small in magnitude. *)
let zig v = (v lsl 1) lxor (v asr 62)

let unzig z = (z lsr 1) lxor (- (z land 1))

let zint_size v = uv_size (zig v)

let put_zint b pos v = put_uv b pos (zig v)

let get_zint s pos ~limit =
  let z, pos = get_uv s pos ~limit in
  (unzig z, pos)

let get_len s pos ~limit ~what ~max =
  let n, pos = get_uv s pos ~limit in
  if n < 0 || n > max then fail "bad %s length %d" what n;
  (n, pos)

(* --------------------------- the codecs ---------------------------- *)

let zint : int t =
  { c_name = "zint";
    c_size = zint_size;
    c_put = put_zint;
    c_get = get_zint }

let zpair : (int * int) t =
  { c_name = "zpair";
    c_size = (fun (a, b) -> zint_size a + zint_size b);
    c_put =
      (fun buf pos (a, b) ->
         let pos = put_zint buf pos a in
         put_zint buf pos b);
    c_get =
      (fun s pos ~limit ->
         let a, pos = get_zint s pos ~limit in
         let b, pos = get_zint s pos ~limit in
         ((a, b), pos)) }

let max_vector = 1 lsl 16  (* components; a decode-side allocation cap *)

let zvec : int array t =
  { c_name = "zvec";
    c_size =
      (fun a ->
         let s = ref (uv_size (Array.length a)) in
         for i = 0 to Array.length a - 1 do
           s := !s + zint_size (Array.unsafe_get a i)
         done;
         !s);
    c_put =
      (fun buf pos a ->
         let pos = ref (put_uv buf pos (Array.length a)) in
         for i = 0 to Array.length a - 1 do
           pos := put_zint buf !pos (Array.unsafe_get a i)
         done;
         !pos);
    c_get =
      (fun s pos ~limit ->
         let n, pos = get_len s pos ~limit ~what:"vector" ~max:max_vector in
         let a = Array.make (max n 1) 0 in
         let pos = ref pos in
         for i = 0 to n - 1 do
           let v, pos' = get_zint s !pos ~limit in
           a.(i) <- v;
           pos := pos'
         done;
         ((if n = 0 then [||] else a), !pos)) }

let efr : Timestamp.Efr.result t =
  { c_name = "efr";
    c_size =
      (function
        | Timestamp.Efr.Even v -> 1 + zint_size v
        | Timestamp.Efr.Odd (m, c) -> 1 + zint_size m + zint_size c);
    c_put =
      (fun buf pos r ->
         match r with
         | Timestamp.Efr.Even v ->
           Bytes.unsafe_set buf pos '\000';
           put_zint buf (pos + 1) v
         | Timestamp.Efr.Odd (m, c) ->
           Bytes.unsafe_set buf pos '\001';
           let pos = put_zint buf (pos + 1) m in
           put_zint buf pos c);
    c_get =
      (fun s pos ~limit ->
         if pos >= limit then fail "truncated efr tag";
         match s.[pos] with
         | '\000' ->
           let v, pos = get_zint s (pos + 1) ~limit in
           (Timestamp.Efr.Even v, pos)
         | '\001' ->
           let m, pos = get_zint s (pos + 1) ~limit in
           let c, pos = get_zint s pos ~limit in
           (Timestamp.Efr.Odd (m, c), pos)
         | c -> fail "bad efr tag %d" (Char.code c)) }

(* Name-keyed dispatch.  The registry keys implementations by [T.name]
   and each name fixes a concrete [result] type, but that connection is
   invisible to the type checker once the module is existentially
   packed, so the cast below re-asserts it.  It is wrong only if an
   implementation registers a name from this table with a different
   result type; the per-implementation qcheck round-trips in test_net
   would fail immediately if that happened.  Anything else has no wire
   layout and is refused before a server or client touches a socket. *)
let for_impl (type r) (module T : Timestamp.Intf.S with type result = r) :
  r t =
  let cast (c : _ t) : r t = Obj.magic c in
  match T.name with
  | "lamport-longlived" | "simple-oneshot" | "simple-swap-oneshot" ->
    cast zint
  | "vector-longlived" | "snapshot-longlived" -> cast zvec
  | "efr-longlived" -> cast efr
  | s when String.starts_with ~prefix:"sqrt-" s -> cast zpair
  | name ->
    invalid_arg
      (Printf.sprintf "Net.Codec.for_impl: no wire codec for implementation %s"
         name)

let encode c v =
  let b = Bytes.create (c.c_size v) in
  ignore (c.c_put b 0 v);
  Bytes.unsafe_to_string b

(* Whole-payload decode: one value, no trailing bytes. *)
let decode_exn c s =
  let v, pos = c.c_get s 0 ~limit:(String.length s) in
  if pos <> String.length s then fail "trailing bytes after timestamp";
  v
