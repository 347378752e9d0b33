type sum = int
(* Invariant: folded to at most 16 bits by [normalize] after every
   operation, so [add] cannot overflow even on 32-bit platforms. *)

let zero = 0

let rec normalize s = if s > 0xffff then normalize ((s land 0xffff) + (s lsr 16)) else s

let swab16 s = ((s land 0xff) lsl 8) lor (s lsr 8)

(* ---- word-at-a-time kernels ----

   The data-touching loops below read 64 bits per iteration through the
   compiler's unchecked load primitives (the same ones the stdlib's checked
   accessors compile to, minus the per-access bounds test); every range is
   validated once, up front.  Words are summed in *native* byte order into a
   wide (63-bit) accumulator and folded once at the end: per RFC 1071 §2(B)
   the ones-complement sum is byte-order independent up to a final byte
   swap, so on little-endian machines the folded result is [swab16]ed once
   instead of swapping every load.  The 63-bit accumulator takes 2^30
   additions of 32-bit halves to overflow — far beyond any buffer here. *)

external unsafe_get_16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Native bulk kernels (csum_kernel.c): the checksum engines' data-touching
   loops, with the sum held in independent 32-bit lanes so the C compiler
   can vectorise.  Both return the sum folded towards 16 bits in native
   order; [finish_native]'s byte swap still applies.  No allocation and no
   callbacks, hence [@@noalloc]. *)
external native_sum : Bytes.t -> int -> int -> int = "nectar_csum_sum_stub"
[@@noalloc]

external native_copy_sum : Bytes.t -> int -> Bytes.t -> int -> int -> int
  = "nectar_csum_copy_sum_stub"
[@@noalloc]

(* Below this length the OCaml word loops win (no external-call setup) and
   the protocol headers stay on the pure-OCaml path. *)
let native_threshold = 64

let big_endian = Sys.big_endian

(* Fold a native-order accumulator [s] (plus the odd trailing byte [last],
   if any) into wire order. *)
let finish_native ~odd ~last s =
  let s = if odd then s + (if big_endian then last lsl 8 else last) else s in
  let s = normalize s in
  if big_endian then s else swab16 s

let check_range ~what buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg (what ^ ": range out of bounds")

let of_slice buf ~off ~len =
  check_range ~what:"Inet_csum.of_slice" buf ~off ~len;
  if len >= native_threshold then begin
    let s = normalize (native_sum buf off len) in
    if big_endian then s else swab16 s
  end
  else begin
  let even_stop = off + len - (len land 1) in
  let s = ref 0 in
  let i = ref off in
  while !i + 8 <= even_stop do
    let v = unsafe_get_64 buf !i in
    s :=
      !s
      + Int64.to_int (Int64.logand v 0xffff_ffffL)
      + Int64.to_int (Int64.shift_right_logical v 32);
    i := !i + 8
  done;
  while !i < even_stop do
    s := !s + unsafe_get_16 buf !i;
    i := !i + 2
  done;
  finish_native ~odd:(len land 1 = 1)
    ~last:(if len land 1 = 1 then Bytes.get_uint8 buf (off + len - 1) else 0)
    !s
  end

let of_bytes ?(off = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - off in
  of_slice buf ~off ~len

(* Retained byte-at-a-time implementation: the oracle the property tests
   hold the word-wise kernels against. *)
let reference_of_bytes ?(off = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - off in
  check_range ~what:"Inet_csum.reference_of_bytes" buf ~off ~len;
  let s = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    s := !s + (Bytes.get_uint8 buf !i lsl 8) + Bytes.get_uint8 buf (!i + 1);
    i := !i + 2
  done;
  if !i < stop then s := !s + (Bytes.get_uint8 buf !i lsl 8);
  normalize !s

(* Fused copy + checksum: one pass that both blits [len] bytes and returns
   their ones-complement sum — the software image of the CAB's DMA engines,
   which checksum the words as they stream past (§2.1). *)
let copy_and_sum ~src ~src_off ~dst ~dst_off ~len =
  check_range ~what:"Inet_csum.copy_and_sum src" src ~off:src_off ~len;
  check_range ~what:"Inet_csum.copy_and_sum dst" dst ~off:dst_off ~len;
  if src == dst && len > 0 && abs (dst_off - src_off) < len then begin
    (* Overlapping in-buffer move: memmove first, then sum the result. *)
    Bytes.blit src src_off dst dst_off len;
    of_bytes ~off:dst_off ~len dst
  end
  else if len >= native_threshold then begin
    let s = normalize (native_copy_sum src src_off dst dst_off len) in
    if big_endian then s else swab16 s
  end
  else begin
    let even_len = len - (len land 1) in
    let s = ref 0 in
    let i = ref 0 in
    while !i + 8 <= even_len do
      let v = unsafe_get_64 src (src_off + !i) in
      unsafe_set_64 dst (dst_off + !i) v;
      s :=
        !s
        + Int64.to_int (Int64.logand v 0xffff_ffffL)
        + Int64.to_int (Int64.shift_right_logical v 32);
      i := !i + 8
    done;
    while !i < even_len do
      let w = unsafe_get_16 src (src_off + !i) in
      unsafe_set_16 dst (dst_off + !i) w;
      s := !s + w;
      i := !i + 2
    done;
    let odd = len land 1 = 1 in
    let last =
      if odd then begin
        let b = Bytes.get_uint8 src (src_off + len - 1) in
        Bytes.set_uint8 dst (dst_off + len - 1) b;
        b
      end
      else 0
    in
    finish_native ~odd ~last !s
  end

let add a b = normalize (a + b)

let concat ~first_len a b =
  if first_len land 1 = 0 then add a b else add a (swab16 (normalize b))

let add_u16 s w = normalize (s + (w land 0xffff))

let fold s = normalize s

let finish s = lnot (fold s) land 0xffff

let is_valid s = fold s = 0xffff

let pseudo_header ~src ~dst ~proto ~len =
  let hi32 v = Int32.to_int (Int32.shift_right_logical v 16) land 0xffff in
  let lo32 v = Int32.to_int v land 0xffff in
  let s = 0 in
  let s = add_u16 s (hi32 src) in
  let s = add_u16 s (lo32 src) in
  let s = add_u16 s (hi32 dst) in
  let s = add_u16 s (lo32 dst) in
  let s = add_u16 s (proto land 0xff) in
  add_u16 s (len land 0xffff)

