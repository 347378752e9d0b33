type t = { vaddr : int; buf : Bytes.t; off : int; len : int }

let create ~vaddr len =
  if len < 0 then invalid_arg "Region.create: negative length";
  { vaddr; buf = Bytes.create len; off = 0; len }

let of_bytes ~vaddr buf = { vaddr; buf; off = 0; len = Bytes.length buf }

let vaddr t = t.vaddr
let length t = t.len
let bytes t =
  if t.off = 0 && t.len = Bytes.length t.buf then t.buf
  else Bytes.sub t.buf t.off t.len

let backing t = (t.buf, t.off)

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg
      (Printf.sprintf "Region.sub: off=%d len=%d in region of %d" off len
         t.len);
  { vaddr = t.vaddr + off; buf = t.buf; off = t.off + off; len }

let blit_to_bytes t ~src_off dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > t.len then
    invalid_arg "Region.blit_to_bytes: out of range";
  Bytes.blit t.buf (t.off + src_off) dst dst_off len

let blit_from_bytes src ~src_off t ~dst_off ~len =
  if dst_off < 0 || len < 0 || dst_off + len > t.len then
    invalid_arg "Region.blit_from_bytes: out of range";
  Bytes.blit src src_off t.buf (t.off + dst_off) len

(* ---- fused copy + checksum ---- *)

let blit_csum_to_bytes t ~src_off dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > t.len then
    invalid_arg "Region.blit_csum_to_bytes: out of range";
  Inet_csum.copy_and_sum ~src:t.buf ~src_off:(t.off + src_off) ~dst ~dst_off
    ~len

let sum t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg "Region.sum: out of range";
  Inet_csum.of_slice t.buf ~off:(t.off + off) ~len

external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let fill_pattern t ~seed =
  (* Position-dependent so truncation / misplacement is detected, seeded so
     distinct transfers are distinguishable.  131 is odd, so the byte
     sequence has period 256: render one cycle, then blit it. *)
  let len = t.len in
  if len <= 256 then
    for i = 0 to len - 1 do
      Bytes.set_uint8 t.buf (t.off + i) ((seed + (i * 131)) land 0xff)
    done
  else begin
    let cycle = Bytes.create 256 in
    for i = 0 to 255 do
      Bytes.set_uint8 cycle i ((seed + (i * 131)) land 0xff)
    done;
    let pos = ref 0 in
    while !pos < len do
      let n = min 256 (len - !pos) in
      Bytes.blit cycle 0 t.buf (t.off + !pos) n;
      pos := !pos + n
    done
  end

let equal_contents a b =
  a.len = b.len
  &&
  let len = a.len in
  let i = ref 0 in
  let ok = ref true in
  while
    !ok && !i + 8 <= len
    (* word-wise compare; any mismatch falls out to the byte loop *)
  do
    if Int64.equal (unsafe_get_64 a.buf (a.off + !i)) (unsafe_get_64 b.buf (b.off + !i))
    then i := !i + 8
    else ok := false
  done;
  while !ok && !i < len do
    if Bytes.get a.buf (a.off + !i) = Bytes.get b.buf (b.off + !i) then incr i
    else ok := false
  done;
  !ok

let pages ~page_size t = Page.count ~page_size ~base:t.vaddr ~len:t.len

let is_word_aligned t = t.vaddr land 3 = 0
