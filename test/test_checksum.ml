(* Tests for ones-complement checksum arithmetic and offload records. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fold b = Inet_csum.fold (Inet_csum.of_bytes b)

(* Two checksum sums are equal when their folded values are. *)
let csum_equal a b = Inet_csum.fold a = Inet_csum.fold b
let csum_of_string s = Inet_csum.of_bytes (Bytes.of_string s)

(* Reference implementation: big-endian 16-bit ones-complement sum done
   naively with an arbitrary-width accumulator folded at the end. *)
let reference_sum buf ~off ~len =
  let s = ref 0 in
  let i = ref off in
  while !i + 1 < off + len do
    s := !s + (Bytes.get_uint8 buf !i * 256) + Bytes.get_uint8 buf (!i + 1);
    i := !i + 2
  done;
  if !i < off + len then s := !s + (Bytes.get_uint8 buf !i * 256);
  let s = ref !s in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  !s

let test_known_vector () =
  (* RFC 1071 §3 example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2 (before
     complement). *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071 example" 0xddf2 (fold b);
  check_int "complement" 0x220d (Inet_csum.finish (Inet_csum.of_bytes b))

let test_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* 0x0102 + 0x0300 *)
  check_int "odd trailing byte is high byte" 0x0402 (fold b)

let test_empty () =
  check_int "empty sum" 0 (Inet_csum.fold (Inet_csum.of_bytes Bytes.empty));
  check_int "finish empty" 0xffff (Inet_csum.finish Inet_csum.zero)

let test_verify_roundtrip () =
  (* Computing a checksum, storing it, and re-summing must validate. *)
  let b = Bytes.of_string "\x45\x00\x00\x1c\x1a\x2b\x00\x00\x40\x11\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02" in
  let csum = Inet_csum.finish (Inet_csum.of_bytes b) in
  Bytes.set_uint16_be b 10 csum;
  check_bool "verifies" true (Inet_csum.is_valid (Inet_csum.of_bytes b))

let prop_matches_reference =
  QCheck.Test.make ~name:"of_bytes matches reference" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let b = Bytes.of_string s in
      Inet_csum.fold (Inet_csum.of_bytes b)
      = reference_sum b ~off:0 ~len:(Bytes.length b))

let prop_concat =
  QCheck.Test.make
    ~name:"concat over any split equals whole-buffer sum (incl. odd splits)"
    ~count:500
    QCheck.(pair (string_of_size Gen.(1 -- 100)) small_nat)
    (fun (s, k) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let cut = k mod (n + 1) in
      let a = Inet_csum.of_bytes ~off:0 ~len:cut b in
      let c = Inet_csum.of_bytes ~off:cut ~len:(n - cut) b in
      csum_equal (Inet_csum.concat ~first_len:cut a c)
        (Inet_csum.of_bytes b))

let prop_concat_associative =
  QCheck.Test.make ~name:"three-way concat is split-point independent"
    ~count:300
    QCheck.(triple (string_of_size Gen.(0 -- 60)) (string_of_size Gen.(0 -- 60)) (string_of_size Gen.(0 -- 60)))
    (fun (a, b, c) ->
      let sa = csum_of_string a
      and sb = csum_of_string b
      and sc = csum_of_string c in
      let la = String.length a and lb = String.length b in
      (* (a ++ b) ++ c  =  a ++ (b ++ c) *)
      let left =
        Inet_csum.concat ~first_len:(la + lb)
          (Inet_csum.concat ~first_len:la sa sb)
          sc
      in
      let right =
        Inet_csum.concat ~first_len:la sa
          (Inet_csum.concat ~first_len:lb sb sc)
      in
      csum_equal left right
      && csum_equal left (csum_of_string (a ^ b ^ c)))

(* ---------- word-at-a-time kernels vs the byte-at-a-time oracle ---------- *)

let arb_buf_range =
  (* A buffer plus an arbitrary (off, len) range inside it — including
     empty ranges, odd offsets and odd lengths. *)
  QCheck.make
    QCheck.Gen.(
      let* s = string_size (0 -- 300) in
      let n = String.length s in
      let* off = 0 -- n in
      let* len = 0 -- (n - off) in
      return (s, off, len))
    ~print:(fun (s, off, len) ->
      Printf.sprintf "len(buf)=%d off=%d len=%d" (String.length s) off len)

let prop_kernel_matches_oracle =
  QCheck.Test.make
    ~name:"word kernel = byte oracle at any offset/length" ~count:1000
    arb_buf_range
    (fun (s, off, len) ->
      let b = Bytes.of_string s in
      csum_equal
        (Inet_csum.of_bytes ~off ~len b)
        (Inet_csum.reference_of_bytes ~off ~len b))

let prop_oracle_matches_local_reference =
  QCheck.Test.make
    ~name:"retained oracle matches this file's independent reference"
    ~count:500 arb_buf_range
    (fun (s, off, len) ->
      let b = Bytes.of_string s in
      Inet_csum.fold (Inet_csum.reference_of_bytes ~off ~len b)
      = reference_sum b ~off ~len)

let prop_copy_and_sum =
  QCheck.Test.make
    ~name:"copy_and_sum copies exactly and sums like the oracle" ~count:1000
    QCheck.(pair arb_buf_range (int_bound 8))
    (fun ((s, src_off, len), dst_off) ->
      let src = Bytes.of_string s in
      let dst = Bytes.make (dst_off + len + 5) '\xaa' in
      let sum = Inet_csum.copy_and_sum ~src ~src_off ~dst ~dst_off ~len in
      Bytes.equal (Bytes.sub dst dst_off len) (Bytes.sub src src_off len)
      && csum_equal sum (Inet_csum.reference_of_bytes ~off:dst_off ~len dst)
      (* guard bytes around the destination window untouched *)
      && (dst_off = 0 || Bytes.get dst (dst_off - 1) = '\xaa')
      && Bytes.get dst (dst_off + len) = '\xaa')

let prop_copy_and_sum_overlap =
  QCheck.Test.make
    ~name:"copy_and_sum has memmove semantics on overlapping ranges"
    ~count:500
    QCheck.(triple (string_of_size Gen.(1 -- 200)) small_nat small_nat)
    (fun (s, a, c) ->
      let n = String.length s in
      let len = 1 + (a mod n) in
      let max_off = n - len in
      let src_off = c mod (max_off + 1) in
      let dst_off = ((a * 7) + c) mod (max_off + 1) in
      let fused = Bytes.of_string s in
      let model = Bytes.of_string s in
      let sum =
        Inet_csum.copy_and_sum ~src:fused ~src_off ~dst:fused ~dst_off ~len
      in
      Bytes.blit model src_off model dst_off len;
      Bytes.equal fused model
      && csum_equal sum
           (Inet_csum.reference_of_bytes ~off:dst_off ~len model))

let test_pseudo_header () =
  let src = 0x0a000001l and dst = 0x0a000002l in
  let p = Inet_csum.pseudo_header ~src ~dst ~proto:6 ~len:20 in
  (* 0x0a00 + 0x0001 + 0x0a00 + 0x0002 + 0x0006 + 0x0014 *)
  check_int "pseudo header sum" 0x141d (Inet_csum.fold p)

let test_never_zero_with_pseudo () =
  (* §4.3: a ones-complement sum that includes non-zero address fields can
     never fold to zero, so UDP's 0-means-unchecksummed is safe. *)
  let src = 0x0a000001l and dst = 0x0a000002l in
  let all_zero = Bytes.create 64 in
  let s =
    Inet_csum.add
      (Inet_csum.pseudo_header ~src ~dst ~proto:17 ~len:72)
      (Inet_csum.of_bytes all_zero)
  in
  check_bool "sum with pseudo-header nonzero" true (Inet_csum.fold s <> 0);
  check_bool "finish therefore not 0xffff" true (Inet_csum.finish s <> 0xffff)

(* ---------- offload records ---------- *)

let test_tx_offload_roundtrip () =
  (* Simulate the engine semantics end to end: seed in the field, engine
     sums header range + body, field := complement. *)
  let hdr_len = 20 and body_len = 57 in
  let pkt = Bytes.create (hdr_len + body_len) in
  for i = 0 to Bytes.length pkt - 1 do
    Bytes.set_uint8 pkt i ((i * 7) land 0xff)
  done;
  let src = 0x0a000001l and dst = 0x0a000002l in
  let pseudo =
    Inet_csum.pseudo_header ~src ~dst ~proto:6 ~len:(hdr_len + body_len)
  in
  (* Host: zero field, place seed. *)
  Bytes.set_uint16_be pkt 16 0;
  Bytes.set_uint16_be pkt 16 (Inet_csum.fold pseudo);
  (* Engine: header-range sum (seed included) and body sum. *)
  let header_sum = Inet_csum.of_bytes ~off:0 ~len:hdr_len pkt in
  let body_sum = Inet_csum.of_bytes ~off:hdr_len ~len:body_len pkt in
  let field = Csum_offload.tx_finalize ~header_sum ~body_sum in
  Bytes.set_uint16_be pkt 16 field;
  (* Receiver check: pseudo + whole segment folds to 0xffff. *)
  let total = Inet_csum.add pseudo (Inet_csum.of_bytes pkt) in
  check_bool "end-to-end valid" true (Inet_csum.is_valid total)

let test_tx_offload_retransmit () =
  (* A retransmitted header with a fresh seed combined with the *saved*
     body sum must still verify. *)
  let hdr_len = 20 and body_len = 100 in
  let pkt = Bytes.create (hdr_len + body_len) in
  for i = 0 to Bytes.length pkt - 1 do
    Bytes.set_uint8 pkt i ((i * 13 + 5) land 0xff)
  done;
  let saved_body = Inet_csum.of_bytes ~off:hdr_len ~len:body_len pkt in
  (* New header contents (e.g. different ack field) with new seed. *)
  Bytes.set_uint8 pkt 8 0x99;
  let pseudo =
    Inet_csum.pseudo_header ~src:0x0a000005l ~dst:0x0a000006l ~proto:6
      ~len:(hdr_len + body_len)
  in
  Bytes.set_uint16_be pkt 16 (Inet_csum.fold pseudo);
  let header_sum = Inet_csum.of_bytes ~off:0 ~len:hdr_len pkt in
  let field = Csum_offload.tx_finalize ~header_sum ~body_sum:saved_body in
  Bytes.set_uint16_be pkt 16 field;
  let total = Inet_csum.add pseudo (Inet_csum.of_bytes pkt) in
  check_bool "retransmit still valid" true (Inet_csum.is_valid total)

let test_rx_offload_adjust () =
  (* Engine starts 20 bytes into the transport header; host adds the
     skipped bytes plus the pseudo-header (§4.3 receive). *)
  let seg_len = 120 in
  let seg = Bytes.create seg_len in
  for i = 0 to seg_len - 1 do
    Bytes.set_uint8 seg i ((i * 31 + 1) land 0xff)
  done;
  let pseudo =
    Inet_csum.pseudo_header ~src:0x0a000001l ~dst:0x0a000002l ~proto:6
      ~len:seg_len
  in
  (* Make the segment checksum-correct first. *)
  Bytes.set_uint16_be seg 16 0;
  let field =
    Inet_csum.finish (Inet_csum.add pseudo (Inet_csum.of_bytes seg))
  in
  Bytes.set_uint16_be seg 16 field;
  (* Engine covers [20, seg_len). *)
  let rx =
    Csum_offload.make_rx
      ~engine_sum:(Inet_csum.of_bytes ~off:20 ~len:(seg_len - 20) seg)
      ~rx_start:20
  in
  let skipped = Inet_csum.of_bytes ~off:0 ~len:20 seg in
  check_bool "adjusted verify" true (Csum_offload.rx_verify rx ~skipped ~pseudo);
  (* Corrupt one byte of payload: must fail. *)
  Bytes.set_uint8 seg 60 (Bytes.get_uint8 seg 60 lxor 0xff);
  let rx_bad =
    Csum_offload.make_rx
      ~engine_sum:(Inet_csum.of_bytes ~off:20 ~len:(seg_len - 20) seg)
      ~rx_start:20
  in
  check_bool "corruption detected" false
    (Csum_offload.rx_verify rx_bad ~skipped ~pseudo)

let prop_tx_offload_any_payload =
  QCheck.Test.make ~name:"tx offload verifies for arbitrary payloads"
    ~count:300
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun payload ->
      let hdr_len = 20 in
      let n = hdr_len + String.length payload in
      let pkt = Bytes.create n in
      Bytes.blit_string payload 0 pkt hdr_len (String.length payload);
      let pseudo =
        Inet_csum.pseudo_header ~src:0x0a010101l ~dst:0x0a010102l ~proto:6
          ~len:n
      in
      Bytes.set_uint16_be pkt 16 (Inet_csum.fold pseudo);
      let header_sum = Inet_csum.of_bytes ~off:0 ~len:hdr_len pkt in
      let body_sum = Inet_csum.of_bytes ~off:hdr_len ~len:(n - hdr_len) pkt in
      Bytes.set_uint16_be pkt 16
        (Csum_offload.tx_finalize ~header_sum ~body_sum);
      Inet_csum.is_valid (Inet_csum.add pseudo (Inet_csum.of_bytes pkt)))

let () =
  Alcotest.run "checksum"
    [
      ( "inet_csum",
        [
          Alcotest.test_case "known vector" `Quick test_known_vector;
          Alcotest.test_case "odd length" `Quick test_odd_length;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "verify roundtrip" `Quick test_verify_roundtrip;
          Alcotest.test_case "pseudo header" `Quick test_pseudo_header;
          Alcotest.test_case "udp zero impossibility" `Quick
            test_never_zero_with_pseudo;
          QCheck_alcotest.to_alcotest prop_matches_reference;
          QCheck_alcotest.to_alcotest prop_kernel_matches_oracle;
          QCheck_alcotest.to_alcotest prop_oracle_matches_local_reference;
          QCheck_alcotest.to_alcotest prop_copy_and_sum;
          QCheck_alcotest.to_alcotest prop_copy_and_sum_overlap;
          QCheck_alcotest.to_alcotest prop_concat;
          QCheck_alcotest.to_alcotest prop_concat_associative;
        ] );
      ( "offload",
        [
          Alcotest.test_case "tx roundtrip" `Quick test_tx_offload_roundtrip;
          Alcotest.test_case "tx retransmit" `Quick test_tx_offload_retransmit;
          Alcotest.test_case "rx adjust" `Quick test_rx_offload_adjust;
          QCheck_alcotest.to_alcotest prop_tx_offload_any_payload;
        ] );
    ]
