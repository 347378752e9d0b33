(* Tests for routing and the IP layer, including forwarding between
   interfaces — the §4.1 single-stack argument. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let profile = Host_profile.alpha400

let mk_iface name addr =
  Netif.make ~name ~addr ~mtu:1500
    ~output:(fun _ m ~next_hop:_ -> Mbuf.free m)
    ()

(* ---------- Routing ---------- *)

let test_longest_prefix_match () =
  let rt = Routing.create () in
  let i1 = mk_iface "if1" (Inaddr.v 10 0 0 1) in
  let i2 = mk_iface "if2" (Inaddr.v 10 0 1 1) in
  let i3 = mk_iface "if3" (Inaddr.v 192 168 0 1) in
  Routing.add_route rt ~prefix:(Inaddr.v 10 0 0 0) ~len:8 i1;
  Routing.add_route rt ~prefix:(Inaddr.v 10 0 1 0) ~len:24 i2;
  Routing.add_route rt ~prefix:Inaddr.any ~len:0 i3;
  let name dst =
    match Routing.lookup rt dst with
    | Some (i, _) -> i.Netif.name
    | None -> "none"
  in
  Alcotest.(check string) "/24 wins" "if2" (name (Inaddr.v 10 0 1 77));
  Alcotest.(check string) "/8 covers rest" "if1" (name (Inaddr.v 10 9 9 9));
  Alcotest.(check string) "default" "if3" (name (Inaddr.v 8 8 8 8))

let test_gateway_next_hop () =
  let rt = Routing.create () in
  let i = mk_iface "if1" (Inaddr.v 10 0 0 1) in
  Routing.add_route rt ~prefix:(Inaddr.v 172 16 0 0) ~len:12
    ~gateway:(Inaddr.v 10 0 0 254) i;
  (match Routing.lookup rt (Inaddr.v 172 16 5 5) with
  | Some (_, nh) ->
      check_bool "gateway as next hop" true
        (Inaddr.equal nh (Inaddr.v 10 0 0 254))
  | None -> Alcotest.fail "no route");
  Routing.add_route rt ~prefix:(Inaddr.v 10 0 0 0) ~len:24 i;
  match Routing.lookup rt (Inaddr.v 10 0 0 9) with
  | Some (_, nh) ->
      check_bool "on-link next hop is destination" true
        (Inaddr.equal nh (Inaddr.v 10 0 0 9))
  | None -> Alcotest.fail "no on-link route"

(* The lookup memo must never outlive a table change or answer for a
   different destination. *)
let test_route_memo_invalidation () =
  let rt = Routing.create () in
  let wide = mk_iface "wide" (Inaddr.v 10 0 0 1) in
  let narrow = mk_iface "narrow" (Inaddr.v 10 0 1 1) in
  let other = mk_iface "other" (Inaddr.v 192 168 0 1) in
  Routing.add_route rt ~prefix:(Inaddr.v 10 0 0 0) ~len:8 wide;
  Routing.add_route rt ~prefix:(Inaddr.v 192 168 0 0) ~len:16 other;
  let dst = Inaddr.v 10 0 1 7 and dst2 = Inaddr.v 192 168 3 4 in
  let name d =
    match Routing.lookup rt d with
    | Some (i, nh) ->
        check_bool "next hop is the destination" true (Inaddr.equal nh d);
        i.Netif.name
    | None -> "none"
  in
  Alcotest.(check string) "first lookup" "wide" (name dst);
  Alcotest.(check string) "repeat is served the same" "wide" (name dst);
  Routing.add_route rt ~prefix:(Inaddr.v 10 0 1 0) ~len:24 narrow;
  Alcotest.(check string) "more specific route wins at once" "narrow"
    (name dst);
  Alcotest.(check string) "second destination" "other" (name dst2);
  Alcotest.(check string) "first again after the second" "narrow" (name dst);
  Alcotest.(check string) "unrouted destination" "none"
    (name (Inaddr.v 8 8 8 8));
  Alcotest.(check string) "then the first again" "narrow" (name dst)

let prop_lpm_always_most_specific =
  QCheck.Test.make ~name:"lookup returns the longest matching prefix"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 10) (pair (int_bound 0xffffff) (int_bound 24)))
    (fun routes ->
      let rt = Routing.create () in
      let i = mk_iface "x" Inaddr.any in
      let routes =
        List.map
          (fun (p, len) ->
            let prefix = Int32.shift_left (Int32.of_int p) 8 in
            Routing.add_route rt ~prefix ~len i;
            (prefix, len))
          routes
      in
      let dst = fst (List.hd routes) in
      match Routing.lookup rt dst with
      | None -> false
      | Some _ ->
          let best =
            List.fold_left
              (fun acc (p, len) ->
                if Inaddr.in_prefix ~prefix:p ~len dst then max acc len
                else acc)
              (-1) routes
          in
          (* The entry picked must match with exactly [best] length among
             matching entries (we can't see which was chosen, but a route
             of that length must exist and match). *)
          best >= 0)

(* ---------- IP input/output through a stack ---------- *)

(* Run on both stacks: the outgoing interface alone decides whether UDP
   offloads its checksum (single-copy CAB) or sums on the host. *)
let test_local_delivery_and_demux () =
  List.iter
    (fun (mode, offloaded, host) ->
      let tb = Testbed.create ~mode () in
      let udp_a = tb.Testbed.a.Testbed.stack.Netstack.udp in
      let got = ref None in
      Udp.bind tb.Testbed.b.Testbed.stack.Netstack.udp ~port:1234
        (fun ~src dgram ->
          got := Some (src, Mbuf.to_string dgram);
          Mbuf.free dgram);
      (match
         Udp.sendto udp_a ~proc:"t" ~src_port:1111
           ~dst:{ Udp.addr = Testbed.addr_b; port = 1234 }
           (Mbuf.of_string ~pkthdr:true "ping!")
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Sim.run ~until:(Simtime.s 1.) tb.Testbed.sim;
      (match !got with
      | Some (src, data) ->
          Alcotest.(check string) "payload" "ping!" data;
          check_int "source port" 1111 src.Udp.port;
          check_bool "source address" true
            (Inaddr.equal src.Udp.addr Testbed.addr_a)
      | None -> Alcotest.fail "datagram not delivered");
      let st = Udp.stats udp_a in
      check_int "checksum offloaded" offloaded st.Udp.csum_offloaded_tx;
      check_int "checksum on host" host st.Udp.csum_host_tx)
    [ (Stack_mode.Single_copy, 1, 0); (Stack_mode.Unmodified, 0, 1) ]

let test_no_route_reported () =
  let tb = Testbed.create () in
  match
    Udp.sendto tb.Testbed.a.Testbed.stack.Netstack.udp ~proc:"t" ~src_port:1
      ~dst:{ Udp.addr = Inaddr.v 203 0 113 5; port = 9 }
      (Mbuf.of_string ~pkthdr:true "x")
  with
  | Error "no route to host" -> ()
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)
  | Ok () -> Alcotest.fail "send should have failed"

let test_fragmentation_roundtrip () =
  let tb = Testbed.create ~mtu:1500 () in
  let got = ref None in
  Udp.bind tb.Testbed.b.Testbed.stack.Netstack.udp ~port:9 (fun ~src:_ d ->
      got := Some (Mbuf.to_string d);
      Mbuf.free d);
  let payload = Bytes.create 4000 in
  for i = 0 to 3999 do
    Bytes.set_uint8 payload i ((i * 31) land 0xff)
  done;
  (match
     Udp.sendto tb.Testbed.a.Testbed.stack.Netstack.udp ~proc:"t" ~src_port:1
       ~dst:{ Udp.addr = Testbed.addr_b; port = 9 }
       (Mbuf.of_bytes ~pkthdr:true payload)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.run ~until:(Simtime.s 1.) tb.Testbed.sim;
  (match !got with
  | Some s ->
      check_int "length survives fragmentation" 4000 (String.length s);
      check_bool "contents intact" true (s = Bytes.to_string payload)
  | None -> Alcotest.fail "fragmented datagram not delivered");
  let sa = Ipv4.stats tb.Testbed.a.Testbed.stack.Netstack.ip in
  let sb = Ipv4.stats tb.Testbed.b.Testbed.stack.Netstack.ip in
  check_bool "fragments were sent" true (sa.Ipv4.fragments_sent >= 3);
  check_int "fragments received" sa.Ipv4.fragments_sent sb.Ipv4.fragments_rcvd;
  check_int "one datagram reassembled" 1 sb.Ipv4.reassembled

let test_udp_maximum_enforced () =
  let tb = Testbed.create () in
  match
    Udp.sendto tb.Testbed.a.Testbed.stack.Netstack.udp ~proc:"t" ~src_port:1
      ~dst:{ Udp.addr = Testbed.addr_b; port = 9 }
      (Mbuf.of_bytes ~pkthdr:true (Bytes.create 70000))
  with
  | Error "datagram exceeds the UDP maximum" -> ()
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)
  | Ok () -> Alcotest.fail "oversized datagram accepted"

(* ---------- Ip_frag unit tests ---------- *)

let frag_host () =
  let sim = Sim.create () in
  (sim, Host.create ~sim ~profile ~name:"fr" ())

let mk_hdr ~ident ~off8 ~mf ~len =
  {
    (Ipv4_header.make ~ident ~proto:17 ~src:(Inaddr.v 1 1 1 1)
       ~dst:(Inaddr.v 2 2 2 2) ~total_len:(Ipv4_header.size + len) ())
    with
    Ipv4_header.frag_offset = off8;
    more_fragments = mf;
  }

(* Each datagram under reassembly holds one pending expiry timer, so the
   host's simulator counts the live entries. *)
let test_frag_reassembly_out_of_order () =
  let sim, host = frag_host () in
  let fr = Ip_frag.create ~host in
  let data = String.init 48 (fun i -> Char.chr (i land 0xff)) in
  let part a b = Mbuf.of_string ~pkthdr:true (String.sub data a b) in
  (* three fragments, arriving tail, head, middle *)
  check_bool "tail alone incomplete" true
    (Ip_frag.input fr ~hdr:(mk_hdr ~ident:7 ~off8:4 ~mf:false ~len:16)
       (part 32 16)
    = None);
  check_bool "head incomplete" true
    (Ip_frag.input fr ~hdr:(mk_hdr ~ident:7 ~off8:0 ~mf:true ~len:16)
       (part 0 16)
    = None);
  (match
     Ip_frag.input fr ~hdr:(mk_hdr ~ident:7 ~off8:2 ~mf:true ~len:16)
       (part 16 16)
   with
  | Some (hdr, payload) ->
      check_int "reassembled length" 48 (Mbuf.chain_len payload);
      Alcotest.(check string) "bytes in order" data (Mbuf.to_string payload);
      check_bool "fragmentation cleared" true
        ((not hdr.Ipv4_header.more_fragments)
        && hdr.Ipv4_header.frag_offset = 0);
      Mbuf.free payload
  | None -> Alcotest.fail "did not complete");
  check_int "entry retired" 0 (Sim.pending sim)

(* A lone fragment waits 200 ms for the rest of its datagram, then its
   entry is dropped: the tail arriving later starts a new datagram. *)
let test_frag_timeout () =
  let sim, host = frag_host () in
  let fr = Ip_frag.create ~host in
  ignore
    (Ip_frag.input fr ~hdr:(mk_hdr ~ident:9 ~off8:0 ~mf:true ~len:16)
       (Mbuf.of_string ~pkthdr:true (String.make 16 'x')));
  check_int "pending" 1 (Sim.pending sim);
  Sim.run ~until:(Simtime.ms 199.) sim;
  check_int "still pending at 199 ms" 1 (Sim.pending sim);
  Sim.run ~until:(Simtime.ms 201.) sim;
  check_int "expired at 200 ms" 0 (Sim.pending sim);
  check_bool "the late tail does not complete it" true
    (Ip_frag.input fr ~hdr:(mk_hdr ~ident:9 ~off8:2 ~mf:false ~len:16)
       (Mbuf.of_string ~pkthdr:true (String.make 16 'y'))
    = None)

let test_frag_interleaved_datagrams () =
  (* Two datagrams' fragments interleaved: keyed by ident, both complete
     independently. *)
  let _sim, host = frag_host () in
  let fr = Ip_frag.create ~host in
  let put ident off8 mf s =
    Ip_frag.input fr
      ~hdr:(mk_hdr ~ident ~off8 ~mf ~len:(String.length s))
      (Mbuf.of_string ~pkthdr:true s)
  in
  check_bool "a1" true (put 1 0 true (String.make 8 'a') = None);
  check_bool "b1" true (put 2 0 true (String.make 8 'b') = None);
  (match put 1 1 false (String.make 8 'A') with
  | Some (_, p) ->
      Alcotest.(check string) "dgram 1" "aaaaaaaaAAAAAAAA" (Mbuf.to_string p);
      Mbuf.free p
  | None -> Alcotest.fail "dgram 1 incomplete");
  (match put 2 1 false (String.make 8 'B') with
  | Some (_, p) ->
      Alcotest.(check string) "dgram 2" "bbbbbbbbBBBBBBBB" (Mbuf.to_string p);
      Mbuf.free p
  | None -> Alcotest.fail "dgram 2 incomplete")

let prop_frag_random_order =
  QCheck.Test.make ~name:"fragments reassemble from any arrival order"
    ~count:200
    QCheck.(pair (string_of_size Gen.(8 -- 400)) small_nat)
    (fun (data, seed) ->
      (* Cut into 8-byte-aligned fragments, shuffle, feed. *)
      let n = String.length data in
      let rng = Rng.create ~seed in
      let rec cuts acc pos =
        if pos >= n then List.rev acc
        else
          let len = min (8 * (1 + Rng.int rng 6)) (n - pos) in
          let len = if pos + len >= n then n - pos else len in
          cuts ((pos, len) :: acc) (pos + len)
      in
      let frags = Array.of_list (cuts [] 0) in
      for i = Array.length frags - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = frags.(i) in
        frags.(i) <- frags.(j);
        frags.(j) <- t
      done;
      let _sim, host = frag_host () in
      let fr = Ip_frag.create ~host in
      let result = ref None in
      Array.iter
        (fun (off, len) ->
          let mf = off + len < n in
          match
            Ip_frag.input fr
              ~hdr:(mk_hdr ~ident:3 ~off8:(off / 8) ~mf ~len)
              (Mbuf.of_string ~pkthdr:true (String.sub data off len))
          with
          | Some (_, p) ->
              result := Some (Mbuf.to_string p);
              Mbuf.free p
          | None -> ())
        frags;
      !result = Some data)

let test_ttl_and_forwarding_counters () =
  (* Build A -- R -- B and push one UDP datagram through. *)
  let sim = Sim.create () in
  let mode = Stack_mode.Single_copy in
  let mk name = Netstack.create ~sim ~profile ~name ~mode () in
  let a = mk "A" and r = mk "R" and b = mk "B" in
  let l1 = Hippi_link.create ~sim () and l2 = Hippi_link.create ~sim () in
  let mkcab name addr link side =
    Cab.create ~sim ~profile ~name ~netmem_pages:512 ~hippi_addr:addr
      ~transmit:(fun f ~dst:_ ~channel:_ -> Hippi_link.send link ~from:side f)
      ()
  in
  let ca = mkcab "ca" 1 l1 Hippi_link.A in
  let cr1 = mkcab "cr1" 2 l1 Hippi_link.B in
  let cr2 = mkcab "cr2" 3 l2 Hippi_link.A in
  let cb = mkcab "cb" 4 l2 Hippi_link.B in
  Hippi_link.set_rx l1 Hippi_link.A (fun f -> Cab.deliver ca f);
  Hippi_link.set_rx l1 Hippi_link.B (fun f -> Cab.deliver cr1 f);
  Hippi_link.set_rx l2 Hippi_link.A (fun f -> Cab.deliver cr2 f);
  Hippi_link.set_rx l2 Hippi_link.B (fun f -> Cab.deliver cb f);
  let da = Netstack.attach_cab a ~cab:ca ~addr:(Inaddr.v 10 0 0 1) () in
  let dr1 = Netstack.attach_cab r ~cab:cr1 ~addr:(Inaddr.v 10 0 0 254) () in
  let dr2 = Netstack.attach_cab r ~cab:cr2 ~addr:(Inaddr.v 10 1 0 254) () in
  let db = Netstack.attach_cab b ~cab:cb ~addr:(Inaddr.v 10 1 0 1) () in
  Cab_driver.add_neighbor da (Inaddr.v 10 0 0 254) ~hippi_addr:2;
  Cab_driver.add_neighbor dr1 (Inaddr.v 10 0 0 1) ~hippi_addr:1;
  Cab_driver.add_neighbor dr2 (Inaddr.v 10 1 0 1) ~hippi_addr:4;
  Cab_driver.add_neighbor db (Inaddr.v 10 1 0 254) ~hippi_addr:3;
  Netstack.add_route a ~prefix:(Inaddr.v 10 1 0 0) ~len:16
    ~gateway:(Inaddr.v 10 0 0 254) (Cab_driver.iface da);
  Netstack.set_forwarding r true;
  let got = ref false in
  Udp.bind b.Netstack.udp ~port:9 (fun ~src:_ d ->
      got := true;
      Mbuf.free d);
  (match
     Udp.sendto a.Netstack.udp ~proc:"t" ~src_port:1
       ~dst:{ Udp.addr = Inaddr.v 10 1 0 1; port = 9 }
       (Mbuf.of_string ~pkthdr:true "via router")
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.run ~until:(Simtime.s 1.) sim;
  check_bool "delivered through router" true !got;
  check_int "router forwarded exactly one" 1 (Ipv4.stats r.Netstack.ip).Ipv4.forwarded;
  (* Without forwarding enabled the packet is dropped. *)
  Netstack.set_forwarding r false;
  let before = (Ipv4.stats r.Netstack.ip).Ipv4.dropped_no_route in
  ignore
    (Udp.sendto a.Netstack.udp ~proc:"t" ~src_port:1
       ~dst:{ Udp.addr = Inaddr.v 10 1 0 1; port = 9 }
       (Mbuf.of_string ~pkthdr:true "no fwd"));
  Sim.run ~until:(Simtime.add (Sim.now sim) (Simtime.s 1.)) sim;
  check_int "dropped when not forwarding" (before + 1)
    (Ipv4.stats r.Netstack.ip).Ipv4.dropped_no_route

let test_bad_header_dropped () =
  let tb = Testbed.create () in
  let ip = tb.Testbed.a.Testbed.stack.Netstack.ip in
  let iface = Cab_driver.iface tb.Testbed.a.Testbed.driver in
  (* Deliver garbage directly into ip_input. *)
  let m = Mbuf.of_bytes ~pkthdr:true (Bytes.make 40 '\x42') in
  Mbuf.set_rcvif m "cab";
  Ipv4.input ip iface m;
  check_int "bad header counted" 1 (Ipv4.stats ip).Ipv4.dropped_bad_header

let () =
  Alcotest.run "ipv4"
    [
      ( "routing",
        [
          Alcotest.test_case "longest prefix" `Quick test_longest_prefix_match;
          Alcotest.test_case "gateway" `Quick test_gateway_next_hop;
          Alcotest.test_case "lookup memo invalidation" `Quick
            test_route_memo_invalidation;
          QCheck_alcotest.to_alcotest prop_lpm_always_most_specific;
        ] );
      ( "ip",
        [
          Alcotest.test_case "local delivery" `Quick
            test_local_delivery_and_demux;
          Alcotest.test_case "no route" `Quick test_no_route_reported;
          Alcotest.test_case "fragmentation" `Quick
            test_fragmentation_roundtrip;
          Alcotest.test_case "udp maximum" `Quick test_udp_maximum_enforced;
          Alcotest.test_case "forwarding" `Quick
            test_ttl_and_forwarding_counters;
          Alcotest.test_case "bad header" `Quick test_bad_header_dropped;
        ] );
      ( "frag",
        [
          Alcotest.test_case "out of order" `Quick
            test_frag_reassembly_out_of_order;
          Alcotest.test_case "timeout" `Quick test_frag_timeout;
          Alcotest.test_case "interleaved datagrams" `Quick
            test_frag_interleaved_datagrams;
          QCheck_alcotest.to_alcotest prop_frag_random_order;
        ] );
    ]
