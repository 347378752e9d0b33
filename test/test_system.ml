(* System-level tests: the Table-1 taxonomy model, ICMP, the legacy
   Ethernet device, the measurement methodology, and the application
   workloads. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Taxonomy (Table 1) ---------- *)

(* The class with these parameters, as the table lists it. *)
let classify ~api ~csum ~buffering ~movement =
  List.find
    (fun (k : Taxonomy.klass) ->
      k.Taxonomy.api = api && k.Taxonomy.csum = csum
      && k.Taxonomy.buffering = buffering
      && k.Taxonomy.movement = movement)
    (Taxonomy.all ())

let test_taxonomy_cab_class () =
  let k = Taxonomy.cab_class in
  check_bool "CAB class is single copy" true (Taxonomy.is_single_copy k);
  check_int "no host passes" 0 (Taxonomy.host_passes k);
  Alcotest.(check string) "ops" "DMA_C"
    (Format.asprintf "%a" Taxonomy.pp_ops k.Taxonomy.ops)

let test_taxonomy_structure () =
  let all = Taxonomy.all () in
  check_int "36 classes" 36 (List.length all);
  (* Copy API without outboard buffering always needs >= 2 passes. *)
  List.iter
    (fun (k : Taxonomy.klass) ->
      match (k.Taxonomy.api, k.Taxonomy.buffering) with
      | Taxonomy.Copy_api, (Taxonomy.No_buffering | Taxonomy.Packet_buffer) ->
          check_bool "copy API w/o outboard is multi-pass" true
            (Taxonomy.total_passes k >= 2)
      | _ -> ())
    all;
  (* Share API + checksum engine + any buffering that allows insertion is
     single copy. *)
  let k =
    classify ~api:Taxonomy.Share_api ~csum:Taxonomy.Trailer
      ~buffering:Taxonomy.No_buffering ~movement:Taxonomy.Dma_csum
  in
  check_bool "share+trailer+engine single copy" true
    (Taxonomy.is_single_copy k)

let test_taxonomy_efficiency_ordering () =
  let p = Host_profile.alpha400 in
  let eff k = Taxonomy.estimated_efficiency p k in
  let cab = eff Taxonomy.cab_class in
  let two_copy =
    eff
      (classify ~api:Taxonomy.Copy_api ~csum:Taxonomy.Header
         ~buffering:Taxonomy.No_buffering ~movement:Taxonomy.Dma)
  in
  let read_dma =
    eff
      (classify ~api:Taxonomy.Copy_api ~csum:Taxonomy.Header
         ~buffering:Taxonomy.Outboard_buffer ~movement:Taxonomy.Dma)
  in
  check_bool "single-copy class most efficient" true
    (cab > read_dma && read_dma > two_copy)

(* ---------- ICMP ---------- *)

let test_ping_roundtrip () =
  let tb = Testbed.create () in
  let icmp_a = Icmp.create ~ip:tb.Testbed.a.Testbed.stack.Netstack.ip in
  ignore (Icmp.create ~ip:tb.Testbed.b.Testbed.stack.Netstack.ip);
  let replies = ref [] in
  for _ = 1 to 3 do
    Icmp.ping icmp_a ~dst:Testbed.addr_b
      ~on_reply:(fun ~seq ~rtt -> replies := (seq, rtt) :: !replies)
      ()
  done;
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_int "three replies" 3 (List.length !replies);
  check_int "b answered three requests" 3
    (List.length (List.sort_uniq compare (List.map fst !replies)));
  List.iter (fun (_, rtt) -> check_bool "positive rtt" true (rtt > 0)) !replies

let test_ping_large_payload () =
  (* An echo bigger than the auto-DMA buffer arrives with an outboard
     tail; the ICMP kernel consumer must still answer correctly. *)
  let tb = Testbed.create () in
  let icmp_a = Icmp.create ~ip:tb.Testbed.a.Testbed.stack.Netstack.ip in
  let _icmp_b = Icmp.create ~ip:tb.Testbed.b.Testbed.stack.Netstack.ip in
  let got = ref false in
  Icmp.ping icmp_a ~dst:Testbed.addr_b ~size:8000
    ~on_reply:(fun ~seq:_ ~rtt:_ -> got := true)
    ();
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_bool "large echo answered" true !got

let test_ttl_exceeded_message () =
  (* A two-hop world where the sender uses TTL 1: the router must send
     time-exceeded back. *)
  let sim = Sim.create () in
  let profile = Host_profile.alpha400 in
  let mode = Stack_mode.Single_copy in
  let a = Netstack.create ~sim ~profile ~name:"A" ~mode () in
  let r = Netstack.create ~sim ~profile ~name:"R" ~mode () in
  let l1 = Hippi_link.create ~sim () in
  let ca =
    Cab.create ~sim ~profile ~name:"ca" ~netmem_pages:256 ~hippi_addr:1
      ~transmit:(fun f ~dst:_ ~channel:_ ->
        Hippi_link.send l1 ~from:Hippi_link.A f)
      ()
  and cr =
    Cab.create ~sim ~profile ~name:"cr" ~netmem_pages:256 ~hippi_addr:2
      ~transmit:(fun f ~dst:_ ~channel:_ ->
        Hippi_link.send l1 ~from:Hippi_link.B f)
      ()
  in
  let da = Netstack.attach_cab a ~cab:ca ~addr:(Inaddr.v 10 0 0 1) () in
  let dr = Netstack.attach_cab r ~cab:cr ~addr:(Inaddr.v 10 0 0 254) () in
  Hippi_link.set_rx l1 Hippi_link.A (fun f -> Cab.deliver ca f);
  Hippi_link.set_rx l1 Hippi_link.B (fun f -> Cab.deliver cr f);
  Cab_driver.add_neighbor da (Inaddr.v 10 0 0 254) ~hippi_addr:2;
  Cab_driver.add_neighbor dr (Inaddr.v 10 0 0 1) ~hippi_addr:1;
  Netstack.add_route a ~prefix:(Inaddr.v 10 9 0 0) ~len:16
    ~gateway:(Inaddr.v 10 0 0 254) (Cab_driver.iface da);
  Netstack.set_forwarding r true;
  let icmp_a = Icmp.create ~ip:a.Netstack.ip in
  ignore (Icmp.create ~ip:r.Netstack.ip);
  let errs = ref [] in
  Icmp.on_error icmp_a (fun ~kind ~src -> errs := (kind, src) :: !errs);
  (* TTL 1 datagram toward a distant network: dies at R. *)
  ignore
    (Udp.sendto a.Netstack.udp ~proc:"t" ~src_port:1
       ~dst:{ Udp.addr = Inaddr.v 10 9 0 1; port = 7 }
       (Mbuf.of_string ~pkthdr:true "doomed"));
  (* Udp has no ttl knob: send a second probe via raw IP with ttl 1. *)
  let m = Mbuf.of_string ~pkthdr:true "\x00\x07\x00\x07\x00\x0e\x00\x00doomed" in
  ignore
    (Ipv4.output a.Netstack.ip ~proto:Ipv4_header.proto_udp ~ttl:1
       ~dst:(Inaddr.v 10 9 0 1) m);
  Sim.run ~until:(Simtime.s 2.) sim;
  check_bool "an ICMP error arrived" true (!errs <> []);
  check_bool "time-exceeded among them" true
    (List.exists (fun (k, _) -> k = `Time_exceeded) !errs);
  check_bool "the router sent it" true
    (List.exists
       (fun (k, src) ->
         k = `Time_exceeded && Inaddr.equal src (Inaddr.v 10 0 0 254))
       !errs)

let test_loopback () =
  (* Self-talk through lo0: descriptor chains are flattened at the
     loopback's legacy entry and redelivered. *)
  let tb = Testbed.create () in
  let a = tb.Testbed.a.Testbed.stack in
  let _lo = Netstack.attach_loopback a in
  let got = ref None in
  Udp.bind a.Netstack.udp ~port:777 (fun ~src dgram ->
      got := Some (src.Udp.addr, Mbuf.to_string dgram);
      Mbuf.free dgram);
  (match
     Udp.sendto a.Netstack.udp ~proc:"t" ~src_port:778
       ~dst:{ Udp.addr = Inaddr.loopback; port = 777 }
       (Mbuf.of_string ~pkthdr:true "hello self")
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Sim.run ~until:(Simtime.s 1.) tb.Testbed.sim;
  match !got with
  | Some (src, data) ->
      Alcotest.(check string) "payload" "hello self" data;
      check_bool "source is loopback" true (Inaddr.equal src Inaddr.loopback)
  | None -> Alcotest.fail "loopback datagram not delivered"

let test_icmp_unreachable () =
  (* Router with forwarding on but no route for the destination: it must
     generate destination-unreachable. *)
  let tb = Testbed.create () in
  let icmp_a = Icmp.create ~ip:tb.Testbed.a.Testbed.stack.Netstack.ip in
  ignore (Icmp.create ~ip:tb.Testbed.b.Testbed.stack.Netstack.ip);
  Netstack.set_forwarding tb.Testbed.b.Testbed.stack true;
  (* Route unknown nets via B, which has no onward route. *)
  Netstack.add_route tb.Testbed.a.Testbed.stack
    ~prefix:(Inaddr.v 172 16 0 0) ~len:12 ~gateway:Testbed.addr_b
    (Cab_driver.iface tb.Testbed.a.Testbed.driver);
  let errs = ref [] in
  Icmp.on_error icmp_a (fun ~kind ~src -> errs := (kind, src) :: !errs);
  ignore
    (Udp.sendto tb.Testbed.a.Testbed.stack.Netstack.udp ~proc:"t" ~src_port:5
       ~dst:{ Udp.addr = Inaddr.v 172 16 9 9; port = 9 }
       (Mbuf.of_string ~pkthdr:true "nowhere"));
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_bool "unreachable received" true
    (List.exists (fun (k, _) -> k = `Unreachable) !errs);
  check_bool "the router sent it" true
    (List.exists
       (fun (k, src) -> k = `Unreachable && Inaddr.equal src Testbed.addr_b)
       !errs)

(* ---------- Ethernet device ---------- *)

let test_ether_segment_delivery () =
  let sim = Sim.create () in
  let seg = Etherdev.create_segment ~sim () in
  let s1 = Etherdev.attach seg ~mac:0x1 in
  let s2 = Etherdev.attach seg ~mac:0x2 in
  let s3 = Etherdev.attach seg ~mac:0x3 in
  let got2 = ref 0 and got3 = ref 0 in
  Etherdev.set_rx s2 (fun _ -> incr got2);
  Etherdev.set_rx s3 (fun _ -> incr got3);
  let frame dst =
    let b = Bytes.create 100 in
    Ether_frame.encode (Ether_frame.make ~src:0x1 ~dst) b ~off:0;
    b
  in
  Etherdev.transmit s1 (frame 0x2);
  Etherdev.transmit s1 (frame 0xffffffffffff);
  Sim.run sim;
  check_int "unicast only to s2" 2 !got2;
  check_int "broadcast reaches s3" 1 !got3

let test_tcp_over_ethernet () =
  (* The full stack over the legacy device: slow but correct, all host
     checksums. *)
  let sim = Sim.create () in
  let profile = Host_profile.alpha400 in
  let mk name = Netstack.create ~sim ~profile ~name ~mode:Stack_mode.Single_copy () in
  let a = mk "a" and b = mk "b" in
  let seg = Etherdev.create_segment ~sim ~rate:(100e6 /. 8.) () in
  let da =
    Netstack.attach_ether a ~dev:(Etherdev.attach seg ~mac:1)
      ~addr:(Inaddr.v 192 168 0 1)
  in
  let db =
    Netstack.attach_ether b ~dev:(Etherdev.attach seg ~mac:2)
      ~addr:(Inaddr.v 192 168 0 2)
  in
  Ether_driver.add_neighbor da (Inaddr.v 192 168 0 2) ~mac:2;
  Ether_driver.add_neighbor db (Inaddr.v 192 168 0 1) ~mac:1;
  let total = 128 * 1024 in
  let ok = ref false in
  Tcp.listen b.Netstack.tcp ~port:5001 ~on_accept:(fun pcb ->
      let space = Netstack.make_space b ~name:"s" in
      let sock = Socket.create ~host:b.Netstack.host ~space ~proc:"app" pcb in
      let dst = Addr_space.alloc space total in
      Socket.read_exact sock dst (fun n -> ok := n = total));
  let pcb = ref None in
  pcb :=
    Some
      (Tcp.connect a.Netstack.tcp ~dst:(Inaddr.v 192 168 0 2) ~dst_port:5001
         ~on_established:(fun () ->
           let space = Netstack.make_space a ~name:"c" in
           let sock =
             Socket.create ~host:a.Netstack.host ~space ~proc:"app"
               (Option.get !pcb)
           in
           let src = Addr_space.alloc space total in
           Region.fill_pattern src ~seed:6;
           Socket.write sock src (fun () -> Socket.close sock))
         ());
  Sim.run ~until:(Simtime.s 60.) sim;
  check_bool "transfer over ethernet completed" true !ok;
  let st = Tcp.pcb_stats (Option.get !pcb) in
  check_int "nothing offloaded on legacy device" 0 st.Tcp.csum_offloaded_tx;
  check_bool "host checksummed" true (st.Tcp.csum_host_tx > 0)

(* ---------- Measurement methodology ---------- *)

let test_measurement_formula () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"m" ~shard_cell:(ref 0) ~shard:0 in
  Cpu.set_idle_proc cpu "util";
  (* 100us ttcp user + 200us ttcp sys + 50us interrupt while idle. *)
  Cpu.execute cpu ~proc:"ttcp" ~mode:Cpu.User ~site:Cpu.Other ~csum:0
    (Simtime.us 100.) (fun () -> ());
  Cpu.execute cpu ~proc:"ttcp" ~mode:Cpu.Sys ~site:Cpu.Other ~csum:0
    (Simtime.us 200.) (fun () -> ());
  ignore
    (Sim.after sim (Simtime.us 500.) (fun () ->
         Cpu.execute_intr cpu ~site:Cpu.Intr ~csum:0 (Simtime.us 50.)
           (fun () -> ())));
  Sim.run sim;
  let elapsed = Simtime.us 1000. in
  let m = Measurement.of_cpu ~cpu ~elapsed ~bytes:1_000_000 in
  check_int "ttcp user" (Simtime.us 100.) m.Measurement.ttcp_user;
  check_int "ttcp sys" (Simtime.us 200.) m.Measurement.ttcp_sys;
  check_int "util sys (mischarged intr)" (Simtime.us 50.) m.Measurement.util_sys;
  (* util's spare cycles: 1000 - 350 - 75 (background) = 575us;
     utilization = 350 / 925. *)
  Alcotest.(check (float 1e-6)) "utilization" (350. /. 925.)
    m.Measurement.utilization;
  Alcotest.(check (float 0.01)) "throughput Mb/s" 8000.
    m.Measurement.throughput_mbit

(* ---------- Applications ---------- *)

let test_raw_hippi_beats_stack_and_scales () =
  let raw size =
    let tb = Testbed.create () in
    Raw_hippi.run ~tb ~packet_size:size ~total:(4 * 1024 * 1024)
  in
  let small = raw 4096 and big = raw 32768 in
  check_bool "larger packets faster" true (big > small);
  check_bool "approaches the TurboChannel ceiling" true
    (big > 120. && big < 140.)

let test_inkernel_source_sink () =
  let tb = Testbed.create () in
  let sink = Inkernel.sink_on ~stack:tb.Testbed.b.Testbed.stack ~port:7777 in
  let done_ = ref false in
  Inkernel.source ~stack:tb.Testbed.a.Testbed.stack ~dst:Testbed.addr_b
    ~port:7777 ~total:(512 * 1024)
    ~on_done:(fun () -> done_ := true);
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  check_bool "source finished" true !done_;
  check_int "sink got every byte" (512 * 1024) sink.Inkernel.received;
  check_bool "no descriptor leaked into the app" false
    sink.Inkernel.saw_descriptor

let test_dgram_socket_roundtrip () =
  let tb = Testbed.create () in
  let a = tb.Testbed.a.Testbed.stack and b = tb.Testbed.b.Testbed.stack in
  let a_sp = Netstack.make_space a ~name:"dg" in
  let b_sp = Netstack.make_space b ~name:"dg" in
  let sa =
    Dgram_socket.create ~host:a.Netstack.host ~space:a_sp ~proc:"app"
      ~udp:a.Netstack.udp ~ip:a.Netstack.ip ~port:4000 ()
  in
  let sb =
    Dgram_socket.create ~host:b.Netstack.host ~space:b_sp ~proc:"app"
      ~udp:b.Netstack.udp ~ip:b.Netstack.ip ~port:4001 ()
  in
  (* One big (single-copy) and one small (copied) datagram. *)
  let big = Addr_space.alloc a_sp 24576 in
  let small = Addr_space.alloc a_sp 256 in
  Region.fill_pattern big ~seed:21;
  Region.fill_pattern small ~seed:22;
  let rbuf = Addr_space.alloc b_sp 32768 in
  let results = ref [] in
  Dgram_socket.recvfrom sb rbuf (fun n src ->
      results := (n, src.Udp.port, Region.equal_contents (Region.sub rbuf ~off:0 ~len:n) big) :: !results;
      Dgram_socket.recvfrom sb rbuf (fun n2 _src ->
          results :=
            (n2, 0,
             Region.equal_contents (Region.sub rbuf ~off:0 ~len:n2) small)
            :: !results));
  Dgram_socket.sendto sa big ~dst:{ Udp.addr = Testbed.addr_b; port = 4001 }
    (fun () ->
      Dgram_socket.sendto sa small
        ~dst:{ Udp.addr = Testbed.addr_b; port = 4001 }
        (fun () -> ()));
  Sim.run ~until:(Simtime.s 5.) tb.Testbed.sim;
  (match List.rev !results with
  | [ (n1, sport, ok1); (n2, _, ok2) ] ->
      check_int "big size" 24576 n1;
      check_int "source port" 4000 sport;
      check_bool "big content" true ok1;
      check_int "small size" 256 n2;
      check_bool "small content" true ok2
  | l -> Alcotest.fail (Printf.sprintf "expected 2 datagrams, got %d" (List.length l)));
  let st = Dgram_socket.stats sa in
  check_int "one single-copy send" 1 st.Dgram_socket.sent_uio;
  check_int "one copied send" 1 st.Dgram_socket.sent_copy;
  Dgram_socket.close sa;
  Dgram_socket.close sb

let test_dgram_truncation_and_drops () =
  let tb = Testbed.create () in
  let a = tb.Testbed.a.Testbed.stack and b = tb.Testbed.b.Testbed.stack in
  let a_sp = Netstack.make_space a ~name:"dg" in
  let b_sp = Netstack.make_space b ~name:"dg" in
  let sa =
    Dgram_socket.create ~host:a.Netstack.host ~space:a_sp ~proc:"app"
      ~udp:a.Netstack.udp ~ip:a.Netstack.ip ~port:4000 ()
  in
  let sb =
    Dgram_socket.create ~host:b.Netstack.host ~space:b_sp ~proc:"app"
      ~udp:b.Netstack.udp ~ip:b.Netstack.ip ~port:4001 ()
  in
  let payload = Addr_space.alloc a_sp 8192 in
  Region.fill_pattern payload ~seed:5;
  let send n region =
    for _ = 1 to n do
      Dgram_socket.sendto sa region
        ~dst:{ Udp.addr = Testbed.addr_b; port = 4001 }
        (fun () -> ())
    done;
    Sim.run ~until:(Simtime.add (Sim.now tb.Testbed.sim) (Simtime.s 1.))
      tb.Testbed.sim
  in
  send 1 payload;
  (* Read with a short buffer: truncation. *)
  let shortbuf = Addr_space.alloc b_sp 1000 in
  let got = ref (-1) in
  Dgram_socket.recvfrom sb shortbuf (fun n _ -> got := n);
  Sim.run ~until:(Simtime.add (Sim.now tb.Testbed.sim) (Simtime.s 1.)) tb.Testbed.sim;
  check_int "truncated to buffer" 1000 !got;
  check_int "truncation counted" 1 (Dgram_socket.stats sb).Dgram_socket.truncated;
  (* The receive queue holds 64 datagrams: the 65th is dropped. *)
  send 65 (Region.sub payload ~off:0 ~len:64);
  check_int "the 65th queued datagram is dropped" 1
    (Dgram_socket.stats sb).Dgram_socket.queue_drops;
  Dgram_socket.close sa;
  Dgram_socket.close sb

let test_dgram_fragmentation () =
  (* A 60 KByte datagram over a 32 KByte MTU: the dgram socket chooses
     the copy path (engine checksums cannot span fragments), IP
     fragments and reassembles, and the content survives. *)
  let tb = Testbed.create () in
  let a = tb.Testbed.a.Testbed.stack and b = tb.Testbed.b.Testbed.stack in
  let a_sp = Netstack.make_space a ~name:"dg" in
  let b_sp = Netstack.make_space b ~name:"dg" in
  let sa =
    Dgram_socket.create ~host:a.Netstack.host ~space:a_sp ~proc:"app"
      ~paths:{ Socket.default_paths with Socket.force_uio = true }
      ~udp:a.Netstack.udp ~ip:a.Netstack.ip ~port:4000 ()
  in
  let sb =
    Dgram_socket.create ~host:b.Netstack.host ~space:b_sp ~proc:"app"
      ~udp:b.Netstack.udp ~ip:b.Netstack.ip ~port:4001 ()
  in
  let big = Addr_space.alloc a_sp 61440 in
  Region.fill_pattern big ~seed:31;
  let rbuf = Addr_space.alloc b_sp 65536 in
  let got = ref (-1) and ok = ref false in
  Dgram_socket.recvfrom sb rbuf (fun n _src ->
      got := n;
      ok := Region.equal_contents (Region.sub rbuf ~off:0 ~len:n) big);
  Dgram_socket.sendto sa big ~dst:{ Udp.addr = Testbed.addr_b; port = 4001 }
    (fun () -> ());
  Sim.run ~until:(Simtime.s 5.) tb.Testbed.sim;
  check_int "whole datagram" 61440 !got;
  check_bool "content across fragments" true !ok;
  check_int "copy path (no engine across fragments)" 1
    (Dgram_socket.stats sa).Dgram_socket.sent_copy;
  check_bool "fragments flowed" true
    ((Ipv4.stats a.Netstack.ip).Ipv4.fragments_sent >= 2);
  Dgram_socket.close sa;
  Dgram_socket.close sb

let test_blockfile_two_clients () =
  let tb = Testbed.create () in
  let stats =
    Blockfile.serve ~stack:tb.Testbed.b.Testbed.stack ~port:2049 ~blocks:64 ()
  in
  let finished = ref 0 in
  let start_client offset =
    Blockfile.connect ~stack:tb.Testbed.a.Testbed.stack ~server:Testbed.addr_b
      ~port:2049
      ~on_ready:(fun client read_block ->
        let rec loop i =
          if i >= 4 then begin
            if client.Blockfile.read_errors = 0 then incr finished
          end
          else read_block (offset + i) ~ok:(fun _ -> loop (i + 1))
        in
        loop 0)
      ()
  in
  start_client 0;
  start_client 32;
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  check_int "both clients finished cleanly" 2 !finished;
  check_int "eight blocks served" 8 stats.Blockfile.blocks_served

let test_udp_checksum_disabled () =
  (* RFC 768's 0-means-no-checksum: corruption sails through unverified
     when the sender disables checksumming, and is caught otherwise. *)
  let run_with ~checksum =
    let sim = Sim.create () in
    let profile = Host_profile.alpha400 in
    let mode = Stack_mode.Single_copy in
    let a = Netstack.create ~sim ~profile ~name:"a" ~mode () in
    let b = Netstack.create ~sim ~profile ~name:"b" ~mode () in
    let cab_b = ref None in
    let ca =
      Cab.create ~sim ~profile ~name:"ca" ~netmem_pages:256 ~hippi_addr:1
        ~transmit:(fun f ~dst:_ ~channel:_ ->
          (* Corrupt one payload byte in flight. *)
          if Bytes.length f > 200 then
            Bytes.set_uint8 f 150 (Bytes.get_uint8 f 150 lxor 0x40);
          Cab.deliver (Option.get !cab_b) f)
        ()
    in
    let cb =
      Cab.create ~sim ~profile ~name:"cb" ~netmem_pages:256 ~hippi_addr:2
        ~transmit:(fun _ ~dst:_ ~channel:_ -> ())
        ()
    in
    cab_b := Some cb;
    let da = Netstack.attach_cab a ~cab:ca ~addr:(Inaddr.v 10 0 0 1) () in
    let _db = Netstack.attach_cab b ~cab:cb ~addr:(Inaddr.v 10 0 0 2) () in
    Cab_driver.add_neighbor da (Inaddr.v 10 0 0 2) ~hippi_addr:2;
    let delivered = ref 0 in
    Udp.bind b.Netstack.udp ~port:9 (fun ~src:_ d ->
        incr delivered;
        Mbuf.free d);
    ignore
      (Udp.sendto a.Netstack.udp ~proc:"t" ~checksum ~src_port:1
         ~dst:{ Udp.addr = Inaddr.v 10 0 0 2; port = 9 }
         (Mbuf.of_bytes ~pkthdr:true (Bytes.create 512)));
    Sim.run ~until:(Simtime.s 1.) sim;
    (!delivered, (Udp.stats b.Netstack.udp).Udp.csum_failures_rx)
  in
  let with_csum, fails = run_with ~checksum:true in
  check_int "corrupted datagram rejected" 0 with_csum;
  check_int "failure counted" 1 fails;
  let without_csum, fails2 = run_with ~checksum:false in
  check_int "unprotected datagram delivered" 1 without_csum;
  check_int "nothing verified" 0 fails2

let test_blockfile_rpc () =
  let tb = Testbed.create () in
  let stats =
    Blockfile.serve ~stack:tb.Testbed.b.Testbed.stack ~port:2049 ~blocks:16 ()
  in
  let done_reads = ref 0 and errs = ref (-1) in
  Blockfile.connect ~stack:tb.Testbed.a.Testbed.stack ~server:Testbed.addr_b
    ~port:2049
    ~on_ready:(fun client read_block ->
      let rec loop i =
        if i >= 5 then begin
          done_reads := client.Blockfile.reads;
          errs := client.Blockfile.read_errors
        end
        else
          read_block (i * 3) ~ok:(fun buf ->
              check_bool "pattern verified" true
                (Blockfile.expected_block (i * 3) buf);
              loop (i + 1))
      in
      loop 0)
    ();
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  check_int "five successful reads" 5 !done_reads;
  check_int "no errors" 0 !errs;
  check_int "server counted" 5 stats.Blockfile.blocks_served

let test_udp_echo_kernel_app () =
  let tb = Testbed.create () in
  Inkernel.udp_echo ~stack:tb.Testbed.b.Testbed.stack ~port:7;
  let got = ref None in
  Udp.bind tb.Testbed.a.Testbed.stack.Netstack.udp ~port:7070
    (fun ~src:_ d ->
      got := Some (Mbuf.to_string d);
      Mbuf.free d);
  ignore
    (Udp.sendto tb.Testbed.a.Testbed.stack.Netstack.udp ~proc:"t"
       ~src_port:7070
       ~dst:{ Udp.addr = Testbed.addr_b; port = 7 }
       (Mbuf.of_string ~pkthdr:true "echo me"));
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  Alcotest.(check (option string)) "echoed" (Some "echo me") !got

let () =
  Alcotest.run "system"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "CAB class" `Quick test_taxonomy_cab_class;
          Alcotest.test_case "structure" `Quick test_taxonomy_structure;
          Alcotest.test_case "efficiency ordering" `Quick
            test_taxonomy_efficiency_ordering;
        ] );
      ( "icmp",
        [
          Alcotest.test_case "ping" `Quick test_ping_roundtrip;
          Alcotest.test_case "large echo" `Quick test_ping_large_payload;
          Alcotest.test_case "ttl exceeded" `Quick test_ttl_exceeded_message;
        ] );
      ( "paths",
        [
          Alcotest.test_case "loopback" `Quick test_loopback;
          Alcotest.test_case "icmp unreachable" `Quick test_icmp_unreachable;
        ] );
      ( "ethernet",
        [
          Alcotest.test_case "segment delivery" `Quick
            test_ether_segment_delivery;
          Alcotest.test_case "tcp over ethernet" `Quick test_tcp_over_ethernet;
        ] );
      ( "measurement",
        [ Alcotest.test_case "utilization formula" `Quick
            test_measurement_formula ] );
      ( "apps",
        [
          Alcotest.test_case "raw hippi" `Quick
            test_raw_hippi_beats_stack_and_scales;
          Alcotest.test_case "in-kernel source/sink" `Quick
            test_inkernel_source_sink;
          Alcotest.test_case "udp echo" `Quick test_udp_echo_kernel_app;
          Alcotest.test_case "dgram socket roundtrip" `Quick
            test_dgram_socket_roundtrip;
          Alcotest.test_case "dgram truncation/drops" `Quick
            test_dgram_truncation_and_drops;
          Alcotest.test_case "udp checksum off" `Quick
            test_udp_checksum_disabled;
          Alcotest.test_case "dgram fragmentation" `Quick
            test_dgram_fragmentation;
          Alcotest.test_case "blockfile rpc" `Quick test_blockfile_rpc;
          Alcotest.test_case "blockfile two clients" `Quick
            test_blockfile_two_clients;
        ] );
    ]
