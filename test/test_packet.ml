(* Tests for wire-format encode/decode. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Inaddr ---------- *)

let test_inaddr () =
  let a = Inaddr.v 10 1 2 3 in
  Alcotest.(check string) "to_string" "10.1.2.3" (Inaddr.to_string a);
  check_bool "loopback" true (Inaddr.equal Inaddr.loopback (Inaddr.v 127 0 0 1));
  Alcotest.check_raises "bad octet" (Invalid_argument "Inaddr.v: octet out of range")
    (fun () -> ignore (Inaddr.v 300 0 0 1));
  check_bool "prefix match" true
    (Inaddr.in_prefix ~prefix:(Inaddr.v 10 0 0 0) ~len:8 a);
  check_bool "prefix miss" false
    (Inaddr.in_prefix ~prefix:(Inaddr.v 192 168 0 0) ~len:16 a);
  check_bool "len 0 matches everything" true
    (Inaddr.in_prefix ~prefix:Inaddr.any ~len:0 a)

(* ---------- IPv4 ---------- *)

let test_ipv4_roundtrip () =
  let h =
    Ipv4_header.make ~ident:77 ~proto:Ipv4_header.proto_tcp
      ~src:(Inaddr.v 10 0 0 1) ~dst:(Inaddr.v 10 0 0 2) ~total_len:1500 ()
  in
  let buf = Bytes.create 64 in
  Ipv4_header.encode h buf ~off:8;
  (match Ipv4_header.decode buf ~off:8 with
  | Error e -> Alcotest.fail e
  | Ok d ->
      check_int "total_len" 1500 d.Ipv4_header.total_len;
      check_int "ident" 77 d.Ipv4_header.ident;
      check_int "proto" 6 d.Ipv4_header.proto;
      check_bool "src" true (Inaddr.equal d.Ipv4_header.src (Inaddr.v 10 0 0 1)));
  (* Header checksum must self-verify. *)
  check_bool "checksum valid" true
    (Inet_csum.is_valid (Inet_csum.of_bytes ~off:8 ~len:Ipv4_header.size buf))

let test_ipv4_corruption_detected () =
  let h =
    Ipv4_header.make ~proto:Ipv4_header.proto_udp ~src:(Inaddr.v 1 2 3 4)
      ~dst:(Inaddr.v 5 6 7 8) ~total_len:100 ()
  in
  let buf = Bytes.create 20 in
  Ipv4_header.encode h buf ~off:0;
  Bytes.set_uint8 buf 9 (Bytes.get_uint8 buf 9 lxor 1);
  check_bool "bad checksum detected" true
    (match Ipv4_header.decode buf ~off:0 with
    | Error e -> e = "ipv4: bad header checksum"
    | Ok _ -> false)

let test_ipv4_bad_version () =
  let buf = Bytes.create 20 in
  Bytes.set_uint8 buf 0 0x65;
  check_bool "version rejected" true
    (match Ipv4_header.decode buf ~off:0 with
    | Error "ipv4: bad version" -> true
    | _ -> false)

(* ---------- TCP ---------- *)

let test_tcp_roundtrip () =
  let h =
    Tcp_header.make
      ~flags:[ Tcp_header.SYN; Tcp_header.ACK ]
      ~window:4321
      ~options:[ Tcp_header.Mss 32708; Tcp_header.Window_scale 3 ]
      ~src_port:5001 ~dst_port:5002 ~seq:0xdeadbeef ~ack:0x12345678 ()
  in
  let buf = Bytes.create 64 in
  Tcp_header.encode h ~csum:0xabcd buf ~off:4;
  match Tcp_header.decode buf ~off:4 ~len:60 with
  | Error e -> Alcotest.fail e
  | Ok d ->
      let csum = Bytes.get_uint16_be buf (4 + Tcp_header.csum_field_offset) in
      check_int "src port" 5001 d.Tcp_header.src_port;
      check_int "dst port" 5002 d.Tcp_header.dst_port;
      check_int "seq" 0xdeadbeef d.Tcp_header.seq;
      check_int "ack" 0x12345678 d.Tcp_header.ack;
      check_int "window" 4321 d.Tcp_header.window;
      check_int "csum" 0xabcd csum;
      check_bool "SYN" true (Tcp_header.has Tcp_header.SYN d);
      check_bool "ACK" true (Tcp_header.has Tcp_header.ACK d);
      check_bool "no FIN" false (Tcp_header.has Tcp_header.FIN d);
      check_bool "mss option" true
        (List.mem (Tcp_header.Mss 32708) d.Tcp_header.options);
      check_bool "wscale option" true
        (List.mem (Tcp_header.Window_scale 3) d.Tcp_header.options);
      check_int "header size multiple of 4" 0 (Tcp_header.size h mod 4)

let test_tcp_no_options () =
  let h = Tcp_header.make ~src_port:1 ~dst_port:2 ~seq:10 ~ack:0 () in
  check_int "bare header is 20" 20 (Tcp_header.size h);
  let buf = Bytes.create 20 in
  Tcp_header.encode h ~csum:0 buf ~off:0;
  match Tcp_header.decode buf ~off:0 ~len:20 with
  | Error e -> Alcotest.fail e
  | Ok d -> check_int "no options" 0 (List.length d.Tcp_header.options)

let test_tcp_truncated () =
  let buf = Bytes.create 10 in
  check_bool "short buffer rejected" true
    (match Tcp_header.decode buf ~off:0 ~len:10 with
    | Error "tcp: truncated header" -> true
    | _ -> false)

let prop_tcp_seq_roundtrip =
  QCheck.Test.make ~name:"tcp seq/ack 32-bit roundtrip" ~count:300
    QCheck.(pair (int_bound 0xffffffff) (int_bound 0xffffffff))
    (fun (seq, ack) ->
      let h = Tcp_header.make ~src_port:1 ~dst_port:2 ~seq ~ack () in
      let buf = Bytes.create 20 in
      Tcp_header.encode h ~csum:0 buf ~off:0;
      match Tcp_header.decode buf ~off:0 ~len:20 with
      | Ok d -> d.Tcp_header.seq = seq && d.Tcp_header.ack = ack
      | Error _ -> false)

(* ---------- UDP ---------- *)

let test_udp_roundtrip () =
  let buf = Bytes.create 8 in
  List.iteri
    (fun i v -> Bytes.set_uint16_be buf (2 * i) v)
    [ 53; 5353; 512; 0x1234 ];
  match Udp_header.decode buf ~off:0 ~len:8 with
  | Error e -> Alcotest.fail e
  | Ok (d, csum) ->
      check_int "src" 53 d.Udp_header.src_port;
      check_int "dst" 5353 d.Udp_header.dst_port;
      check_int "len" 512 d.Udp_header.length;
      check_int "csum" 0x1234 csum

(* ---------- HIPPI ---------- *)

let test_hippi_roundtrip () =
  let buf = Bytes.create 64 in
  Hippi_framing.encode buf ~off:0 ~src:3 ~dst:9 ~channel:2 ~payload_len:32768;
  match Hippi_framing.decode buf ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok d ->
      check_int "src" 3 d.Hippi_framing.src;
      check_int "dst" 9 d.Hippi_framing.dst;
      check_int "channel" 2 d.Hippi_framing.channel;
      check_int "payload" 32768 d.Hippi_framing.payload_len

let test_hippi_geometry () =
  (* The receive engine offset must land inside the transport header:
     40 (HIPPI) + 20 (IP) = 60 < 80 = 20 words. *)
  check_int "HIPPI header 40B" 40 Hippi_framing.size;
  let rx_start = Hippi_framing.rx_csum_start_words * 4 in
  check_bool "engine starts past net headers" true
    (rx_start > Hippi_framing.size + Ipv4_header.size);
  (* The engine misses at most the base transport header, which the host
     adds back from the auto-DMA'd header bytes (§4.3 receive). *)
  check_bool "host-adjustable skip" true
    (rx_start <= Hippi_framing.size + Ipv4_header.size + Tcp_header.base_size)

let test_hippi_bad_magic () =
  let buf = Bytes.create 40 in
  check_bool "bad magic rejected" true
    (match Hippi_framing.decode buf ~off:0 with
    | Error "hippi: bad magic" -> true
    | _ -> false)

(* ---------- Ethernet ---------- *)

let test_ether_roundtrip () =
  let f = Ether_frame.make ~src:0x00aabbccddee ~dst:0x112233445566 in
  let buf = Bytes.create 14 in
  Ether_frame.encode f buf ~off:0;
  match Ether_frame.decode buf ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok d ->
      check_int "src" 0x00aabbccddee d.Ether_frame.src;
      check_int "dst" 0x112233445566 d.Ether_frame.dst;
      check_int "type IPv4" 0x0800 d.Ether_frame.ethertype

let () =
  Alcotest.run "packet"
    [
      ("inaddr", [ Alcotest.test_case "basics" `Quick test_inaddr ]);
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "corruption" `Quick test_ipv4_corruption_detected;
          Alcotest.test_case "bad version" `Quick test_ipv4_bad_version;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "roundtrip with options" `Quick test_tcp_roundtrip;
          Alcotest.test_case "no options" `Quick test_tcp_no_options;
          Alcotest.test_case "truncated" `Quick test_tcp_truncated;
          QCheck_alcotest.to_alcotest prop_tcp_seq_roundtrip;
        ] );
      ( "udp",
        [
          Alcotest.test_case "roundtrip" `Quick test_udp_roundtrip;
        ] );
      ( "hippi",
        [
          Alcotest.test_case "roundtrip" `Quick test_hippi_roundtrip;
          Alcotest.test_case "checksum geometry" `Quick test_hippi_geometry;
          Alcotest.test_case "bad magic" `Quick test_hippi_bad_magic;
        ] );
      ("ether", [ Alcotest.test_case "roundtrip" `Quick test_ether_roundtrip ]);
    ]
