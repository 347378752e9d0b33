(* Fast smoke test for the word-at-a-time data-touching kernels: a
   deterministic sweep proving the fast paths bit-identical to the
   byte-at-a-time oracle, plus an allocation bound showing the zero-copy
   checksum path really is zero-copy.  Kept small so it adds nothing
   noticeable to [dune runtest]. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let profile = Host_profile.alpha400

let mk_buf n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set_uint8 b i ((i * 193) land 0xff)
  done;
  b

let test_of_bytes_sweep () =
  (* Every offset in 0..9 crossed with every length in 0..50, plus large
     cases that exercise the 64-bit main loop at every alignment. *)
  let b = mk_buf 4096 in
  for off = 0 to 9 do
    for len = 0 to 50 do
      check_int
        (Printf.sprintf "of_bytes off=%d len=%d" off len)
        (Inet_csum.fold (Inet_csum.reference_of_bytes ~off ~len b))
        (Inet_csum.fold (Inet_csum.of_bytes ~off ~len b))
    done;
    let len = 4000 + (off mod 2) in
    check_int
      (Printf.sprintf "of_bytes large off=%d" off)
      (Inet_csum.fold (Inet_csum.reference_of_bytes ~off ~len b))
      (Inet_csum.fold (Inet_csum.of_bytes ~off ~len b))
  done

let test_copy_and_sum_sweep () =
  let src = mk_buf 4096 in
  for src_off = 0 to 5 do
    for len = 0 to 33 do
      let dst_off = (src_off + len) mod 4 in
      let dst = Bytes.make (dst_off + len + 3) '\x5c' in
      let sum = Inet_csum.copy_and_sum ~src ~src_off ~dst ~dst_off ~len in
      check_bool
        (Printf.sprintf "copied bytes src_off=%d len=%d" src_off len)
        true
        (Bytes.equal (Bytes.sub dst dst_off len) (Bytes.sub src src_off len));
      check_int
        (Printf.sprintf "fused sum src_off=%d len=%d" src_off len)
        (Inet_csum.fold (Inet_csum.reference_of_bytes ~off:src_off ~len src))
        (Inet_csum.fold sum);
      check_bool "tail guard" true (Bytes.get dst (dst_off + len) = '\x5c')
    done
  done

let test_cross_segment_parity () =
  (* Odd first segment: the second segment's bytes shift parity, the
     [concat ~first_len] swab case.  33 | 31 split of a 64-byte buffer. *)
  let b = mk_buf 64 in
  let a = Inet_csum.of_bytes ~off:0 ~len:33 b in
  let c = Inet_csum.of_bytes ~off:33 ~len:31 b in
  check_int "odd split concat = whole"
    (Inet_csum.fold (Inet_csum.of_bytes b))
    (Inet_csum.fold (Inet_csum.concat ~first_len:33 a c))

let build_uio_chain n =
  let sp = Addr_space.create ~profile ~name:"kern" () in
  let r = Addr_space.alloc sp n in
  Region.fill_pattern r ~seed:5;
  let half = n / 2 in
  let a =
    Mbuf.make_uio
      ~region:(Region.sub r ~off:0 ~len:half)
      ~notify:None
  in
  let b =
    Mbuf.make_uio
      ~region:(Region.sub r ~off:half ~len:(n - half))
      ~notify:None
  in
  Mbuf.append a b;
  (a, r)

let test_uio_checksum_zero_copy () =
  let n = 32768 in
  let chain, r = build_uio_chain n in
  (* Same answer as summing the backing region directly. *)
  let rbuf, roff = Region.backing r in
  check_int "uio chain checksum"
    (Inet_csum.fold (Inet_csum.reference_of_bytes ~off:roff ~len:n rbuf))
    (Inet_csum.fold (Mbuf.checksum chain ~off:0 ~len:n));
  (* Zero-copy: summing a 32K two-segment UIO chain must not materialize
     any intermediate Bytes.  A staging copy of even one segment would
     show up as thousands of minor words; allow a small constant for
     closures/tuples. *)
  ignore (Mbuf.checksum chain ~off:0 ~len:n);
  let before = Gc.minor_words () in
  ignore (Mbuf.checksum chain ~off:0 ~len:n);
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "allocates no intermediate buffer (%.0f minor words)"
       words)
    true (words < 256.);
  Mbuf.free chain

let test_wcab_chain_raises () =
  (* Outboard data stays outboard: the fast paths must still refuse to
     read through an M_WCAB segment. *)
  let desc =
    {
      Mbuf.wcab_id = 7;
      wcab_bytes = mk_buf 128;
      wcab_base = 0;
      wcab_valid = 128;
      wcab_free = (fun () -> ());
      wcab_refs = ref 1;
    }
  in
  let chain = Mbuf.of_bytes (mk_buf 64) in
  Mbuf.append chain (Mbuf.make_wcab ~desc ~len:128);
  check_bool "checksum raises" true
    (match Mbuf.checksum chain ~off:0 ~len:192 with
    | exception Mbuf.Outboard_data -> true
    | _ -> false);
  check_bool "copy_into_csum raises" true
    (let dst = Bytes.create 192 in
     match Mbuf.copy_into_csum chain ~off:0 ~len:192 dst ~dst_off:0 with
     | exception Mbuf.Outboard_data -> true
     | _ -> false);
  check_bool "view over the boundary is None" true
    (Mbuf.view chain ~off:32 ~len:64 = None)

let () =
  Alcotest.run "kernels"
    [
      ( "smoke",
        [
          Alcotest.test_case "of_bytes sweep" `Quick test_of_bytes_sweep;
          Alcotest.test_case "copy_and_sum sweep" `Quick
            test_copy_and_sum_sweep;
          Alcotest.test_case "cross-segment parity" `Quick
            test_cross_segment_parity;
          Alcotest.test_case "uio checksum zero-copy" `Quick
            test_uio_checksum_zero_copy;
          Alcotest.test_case "wcab stays outboard" `Quick
            test_wcab_chain_raises;
        ] );
    ]
