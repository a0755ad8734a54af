(* Growable byte buffer for the wire hot path.

   [Stdlib.Buffer] boxes every [add_int64_be] (an [Int64.t] allocation
   per field) and [Buffer.contents] copies the accumulated bytes, so a
   server encoding millions of stamps per second pays minor-heap words
   on every one.  Here a writer reserves room, stores bytes straight
   into the [Bytes.t] — no boxing, no intermediate string — and
   advances.  The same buffer is a connection's byte queue in both
   directions: [consume] advances past bytes the socket accepted (send
   side) or the parser took (receive side), compacting lazily, so a
   partial [write(2)] under backpressure just leaves the tail for the
   next round.

   Compaction moves the pending bytes to index 0, so a position taken
   before a [reserve] is stale after it.  Frame writers therefore size
   a whole frame, reserve it once, and fill it (see {!Frame}).

   Steady state (capacity already grown) performs zero minor-heap
   allocation per appended frame; E19's codec microbench pins that. *)

type t = {
  mutable b : Bytes.t;
  mutable off : int;  (* first pending byte *)
  mutable len : int;  (* end of valid bytes; append position *)
}

let create ?(cap = 8192) () =
  { b = Bytes.create (max cap 16); off = 0; len = 0 }

let length t = t.len - t.off

let is_empty t = t.len = t.off

let clear t =
  t.off <- 0;
  t.len <- 0

let bytes t = t.b

let offset t = t.off

(* Make room to append [need] bytes: compact the consumed prefix first,
   grow (amortized doubling) only when compaction isn't enough. *)
let ensure t need =
  let cap = Bytes.length t.b in
  if t.len + need > cap then begin
    let live = t.len - t.off in
    if t.off > 0 then begin
      Bytes.blit t.b t.off t.b 0 live;
      t.off <- 0;
      t.len <- live
    end;
    if live + need > cap then begin
      let cap' = max (live + need) (cap * 2) in
      let nb = Bytes.create cap' in
      Bytes.blit t.b 0 nb 0 live;
      t.b <- nb
    end
  end

let reserve t need =
  ensure t need;
  t.len

let advance t n = t.len <- t.len + n

let consume t n =
  t.off <- t.off + n;
  if t.off >= t.len then begin
    t.off <- 0;
    t.len <- 0
  end

let contents t = Bytes.sub_string t.b t.off (t.len - t.off)
