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

(* A byte slice being read: [buf.[pos .. lim)] is what is left.  Every
   read checks [lim] first, and [lim] never passes the end of [buf]
   ([reset] checks the slice, [get_value] only narrows it), so a decoder
   fed hostile bytes fails cleanly; byte reads are bounds-checked all
   the same, since the record is open to the frame layer.  A connection
   keeps one cursor and resets it over each frame. *)
type cursor = { mutable buf : Bytes.t; mutable pos : int; mutable lim : int }

let reset c buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Codec.cursor: slice out of bounds";
  c.buf <- buf;
  c.pos <- off;
  c.lim <- off + len

let cursor buf ~off ~len =
  let c = { buf; pos = 0; lim = 0 } in
  reset c buf ~off ~len;
  c

(* Read only: nothing writes through a cursor. *)
let cursor_of_string s =
  { buf = Bytes.unsafe_of_string s; pos = 0; lim = String.length s }

type 'r t = {
  c_name : string;
  c_size : 'r -> int;
  c_put : Bytes.t -> int -> 'r -> int;
  c_get : cursor -> 'r;
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
   9th byte is an overflow, not more data.  The refs are local and never
   captured, so they live in registers: no allocation. *)
let get_uv c =
  let v = ref 0 and shift = ref 0 and p = ref c.pos and cont = ref true in
  while !cont do
    if !shift > 56 then fail "varint overflow";
    if !p >= c.lim then fail "truncated varint";
    let byte = Char.code (Bytes.get c.buf !p) in
    incr p;
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := byte >= 0x80
  done;
  c.pos <- !p;
  !v

let get_byte c =
  if c.pos >= c.lim then fail "truncated byte";
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let get_string c n =
  if n < 0 || n > c.lim - c.pos then fail "truncated string";
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

(* Zigzag so signed ints stay short when small in magnitude. *)
let zig v = (v lsl 1) lxor (v asr 62)

let unzig z = (z lsr 1) lxor (- (z land 1))

let zint_size v = uv_size (zig v)

let put_zint b pos v = put_uv b pos (zig v)

let get_zint c = unzig (get_uv c)

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
      (fun c ->
         let a = get_zint c in
         let b = get_zint c in
         (a, b)) }

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
      (fun c ->
         let n = get_uv c in
         if n < 0 || n > max_vector then fail "bad vector length %d" n;
         if n = 0 then [||]
         else begin
           let a = Array.make n 0 in
           for i = 0 to n - 1 do
             a.(i) <- get_zint c
           done;
           a
         end) }

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
      (fun c ->
         match get_byte c with
         | 0 -> Timestamp.Efr.Even (get_zint c)
         | 1 ->
           let m = get_zint c in
           let k = get_zint c in
           Timestamp.Efr.Odd (m, k)
         | tag -> fail "bad efr tag %d" tag) }

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

(* Exactly [len] bytes as one value: the cursor's limit is narrowed to
   them while the codec reads, so a value cannot run into what follows
   it, and bytes it leaves over are an error. *)
let get_value codec c ~len =
  if len < 0 || len > c.lim - c.pos then fail "truncated timestamp";
  let lim = c.lim and stop = c.pos + len in
  c.lim <- stop;
  let v = codec.c_get c in
  if c.pos <> stop then fail "trailing bytes after timestamp";
  c.lim <- lim;
  v

(* Whole-payload decode: one value, no trailing bytes. *)
let decode_exn codec s =
  get_value codec (cursor_of_string s) ~len:(String.length s)
