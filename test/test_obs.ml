(* Observability layer: registry/histogram primitives, the ring tracer's
   wraparound semantics, the data-touch ledger, and the machine-checked
   single-copy invariant from ISSUE 4. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* [n] increments of a registry counter. *)
let add c n =
  for _ = 1 to n do
    Obs.Counter.incr c
  done

(* Whether the registry export carries [section]. *)
let section_exported section =
  Astring.String.is_infix ~affix:(Printf.sprintf "%S: {" section)
    (Obs.to_json ())

(* ---------- histogram ---------- *)

let test_histogram_bucket_boundaries () =
  (* Bucket i covers [2^i, 2^(i+1)); 0 and 1 land in bucket 0. *)
  check_int "0 -> bucket 0" 0 (Obs.Histogram.bucket_of 0);
  check_int "1 -> bucket 0" 0 (Obs.Histogram.bucket_of 1);
  check_int "2 -> bucket 1" 1 (Obs.Histogram.bucket_of 2);
  check_int "3 -> bucket 1" 1 (Obs.Histogram.bucket_of 3);
  check_int "4 -> bucket 2" 2 (Obs.Histogram.bucket_of 4);
  for i = 1 to 30 do
    check_int
      (Printf.sprintf "2^%d lands in bucket %d" i i)
      i
      (Obs.Histogram.bucket_of (1 lsl i));
    check_int
      (Printf.sprintf "2^%d - 1 lands in bucket %d" i (i - 1))
      (i - 1)
      (Obs.Histogram.bucket_of ((1 lsl i) - 1))
  done;
  (* max_int = 2^62 - 1 on 64-bit, so the top reachable bucket is 61;
     bucket 62 exists only as clamp headroom. *)
  check_int "max_int lands in the top reachable bucket" 61
    (Obs.Histogram.bucket_of max_int)

let prop_histogram_bucket_contains =
  QCheck.Test.make ~name:"histogram bucket bounds contain the value"
    ~count:500
    QCheck.(int_bound (1 lsl 30))
    (fun v ->
      let b = Obs.Histogram.bucket_of v in
      Obs.Histogram.bucket_lo b <= max 1 v
      && (b = 62 || max 1 v < Obs.Histogram.bucket_hi b))

let test_histogram_observe_counts () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) [ 1; 1; 2; 3; 1024; 1500; 2047 ];
  check_int "total" 7 (Obs.Histogram.count h);
  check_int "bucket 0 (values <= 1)" 2 (Obs.Histogram.bucket_count h 0);
  check_int "bucket 1 ([2,4))" 2 (Obs.Histogram.bucket_count h 1);
  check_int "bucket 10 ([1024,2048))" 3 (Obs.Histogram.bucket_count h 10);
  Obs.Histogram.reset h;
  check_int "reset empties" 0 (Obs.Histogram.count h)

(* ---------- registry ---------- *)

let test_registry_counter_gauge_json () =
  let c = Obs.counter ~section:"test_reg" ~name:"hits" in
  add c 41;
  Obs.Counter.incr c;
  Obs.gauge ~section:"test_reg" ~name:"ratio" (fun () -> 0.5);
  Obs.table ~section:"test_reg" ~name:"tbl" (fun () -> "[1, 2]");
  check_bool "section listed" true (section_exported "test_reg");
  let json = Obs.to_json ~sections:[ "test_reg" ] () in
  check_bool "counter value exported" true
    (Astring.String.is_infix ~affix:"\"hits\": 42" json);
  check_bool "gauge exported" true
    (Astring.String.is_infix ~affix:"\"ratio\": 0.5" json);
  check_bool "table exported verbatim" true
    (Astring.String.is_infix ~affix:"\"tbl\": [1, 2]" json)

let test_registry_replace_semantics () =
  let c1 = Obs.counter ~section:"test_replace" ~name:"n" in
  add c1 7;
  (* Re-registering the same (section, name) replaces: per-instance
     subsystems re-register on creation and the latest wins. *)
  let c2 = Obs.counter ~section:"test_replace" ~name:"n" in
  add c2 3;
  match Obs.find ~section:"test_replace" ~name:"n" with
  | Some (Obs.M_counter c) -> check_int "latest instance wins" 3 (Obs.Counter.get c)
  | _ -> Alcotest.fail "counter not found after re-registration"

(* A count gauge reads and exports exactly as the float gauge of its
   count would. *)
let test_registry_int_gauge () =
  let n = ref 3 in
  Obs.int_gauge ~section:"test_int" ~name:"n" (fun () -> !n);
  Alcotest.(check (float 0.)) "reads as the float of its count" 3.
    (Obs.value ~section:"test_int" ~name:"n");
  n := 5;
  check_bool "exported as a float" true
    (Astring.String.is_infix ~affix:"\"n\": 5.0"
       (Obs.to_json ~sections:[ "test_int" ] ()))

(* ---------- ring tracer ---------- *)

let with_ring capacity f =
  Obs_trace.configure ~capacity;
  Obs_trace.enable ();
  Fun.protect ~finally:(fun () ->
      Obs_trace.disable ();
      Obs_trace.configure ~capacity:1024)
    f

let test_ring_wraparound_and_drops () =
  with_ring 4 (fun () ->
      let clock = ref 0 in
      Obs_trace.set_clock (fun () -> incr clock; !clock);
      for i = 1 to 6 do
        Obs_trace.emit Obs_trace.Packetize ~a:i ~b:0
      done;
      check_int "holds at most capacity" 4 (Obs_trace.length ());
      check_int "two oldest overwritten" 2 (Obs_trace.dropped ());
      (* Survivors are the latest four, in chronological order. *)
      Alcotest.(check (list int)) "latest events survive" [ 3; 4; 5; 6 ]
        (List.map (fun (_, a, _) -> a) (Dumps.trace_events ()));
      Obs_trace.configure ~capacity:4;
      check_int "configure empties the ring" 0 (Obs_trace.length ());
      check_int "configure zeroes the drop count" 0 (Obs_trace.dropped ()))

let test_ring_disabled_is_noop () =
  with_ring 8 (fun () ->
      Obs_trace.disable ();
      Obs_trace.emit Obs_trace.Intr ~a:1 ~b:0;
      check_int "disabled emit records nothing" 0 (Obs_trace.length ()))

let test_trace_emit_does_not_allocate () =
  with_ring 64 (fun () ->
      Obs_trace.set_clock (fun () -> 7);
      (* Warm up, then measure: emit must not cons in steady state,
         enabled or disabled. *)
      Obs_trace.emit Obs_trace.Sdma_post ~a:1 ~b:1;
      let before = Gc.minor_words () in
      for i = 0 to 9_999 do
        Obs_trace.emit Obs_trace.Sdma_post ~a:i ~b:1
      done;
      let enabled_words = Gc.minor_words () -. before in
      Obs_trace.disable ();
      let before = Gc.minor_words () in
      for i = 0 to 9_999 do
        Obs_trace.emit Obs_trace.Sdma_post ~a:i ~b:1
      done;
      let disabled_words = Gc.minor_words () -. before in
      check_bool "enabled emit is allocation-free" true (enabled_words < 64.);
      check_bool "disabled emit is allocation-free" true
        (disabled_words < 64.))

let test_trace_export_golden () =
  with_ring 8 (fun () ->
      let clock = ref 0 in
      Obs_trace.set_clock (fun () -> clock := !clock + 1500; !clock);
      Obs_trace.emit Obs_trace.Sock_write ~a:4096 ~b:1;
      Obs_trace.emit Obs_trace.Sdma_post ~a:4096 ~b:2;
      check_string "Chrome trace export"
        "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n\
        \  {\"name\": \"sock_write\", \"ph\": \"i\", \"s\": \"g\", \
         \"pid\": 1, \"tid\": 1, \"ts\": 1.500, \"args\": {\"a\": 4096, \
         \"b\": 1}},\n\
        \  {\"name\": \"sdma_post\", \"ph\": \"i\", \"s\": \"g\", \
         \"pid\": 1, \"tid\": 1, \"ts\": 3.000, \"args\": {\"a\": 4096, \
         \"b\": 2}}\n\
         ]}"
        (Obs_trace.to_chrome ()))

(* ---------- ledger ---------- *)

let test_ledger_snapshot_diff () =
  let s0 = Obs_ledger.snapshot () in
  Obs_ledger.touch Obs_ledger.Sock_tx_copy Obs_ledger.Copy 100;
  Obs_ledger.touch Obs_ledger.Sock_tx_copy Obs_ledger.Copy 50;
  Obs_ledger.touch Obs_ledger.Sdma_payload Obs_ledger.Copy_sum 150;
  Obs_ledger.touch Obs_ledger.Tcp_tx_csum Obs_ledger.Sum 150;
  let d = Obs_ledger.since s0 in
  check_int "copy bytes accumulate" 150
    (Obs_ledger.bytes d Obs_ledger.Sock_tx_copy Obs_ledger.Copy);
  check_int "copy_sum counts as a copy" 150
    (Obs_ledger.copied_bytes d Obs_ledger.Sdma_payload);
  check_int "host tx copies exclude DMA sites" 150
    (Obs_ledger.host_tx_copy_bytes d);
  check_int "host tx sums" 150 (Obs_ledger.host_tx_sum_bytes d);
  Alcotest.(check (float 0.0001)) "copies per byte" 2.0
    (Obs_ledger.tx_copies_per_byte d ~payload:150);
  Alcotest.(check (float 0.0001)) "sums per byte" 1.0
    (Obs_ledger.tx_sums_per_byte d ~payload:150);
  (* The window diff is unaffected by earlier traffic. *)
  let s1 = Obs_ledger.snapshot () in
  let empty = Obs_ledger.since s1 in
  check_int "fresh window is clean" 0 (Obs_ledger.host_tx_copy_bytes empty)

(* ---------- the single-copy invariant (ISSUE 4 headline) ---------- *)

let run_ttcp ~mode ~force_uio ~wsize ~total =
  let tb = Testbed.create ~mode () in
  let s0 = Obs_ledger.snapshot () in
  let r = Ttcp.run ~tb ~wsize ~total ~force_uio ~verify:false () in
  check_int "transfer completed" total r.Ttcp.receiver_tcp.Tcp.bytes_rcvd;
  check_int "no retransmits in a clean run" 0 r.Ttcp.retransmits;
  Obs_ledger.since s0

let test_single_copy_invariant () =
  let total = 1 lsl 20 and wsize = 65536 in
  let d =
    run_ttcp ~mode:Stack_mode.Single_copy ~force_uio:true ~wsize ~total
  in
  (* The M_UIO path: the host never copies or checksums a payload byte;
     the only payload movement is the SDMA out of pinned user memory. *)
  check_int "host tx copies == 0" 0 (Obs_ledger.host_tx_copy_bytes d);
  check_int "host tx checksums == 0" 0 (Obs_ledger.host_tx_sum_bytes d);
  check_int "SDMA moves each payload byte exactly once" total
    (Obs_ledger.copied_bytes d Obs_ledger.Sdma_payload);
  Alcotest.(check (float 0.0001)) "copies/byte == 1.0" 1.0
    (Obs_ledger.tx_copies_per_byte d ~payload:total);
  Alcotest.(check (float 0.0001)) "host checksums/byte == 0.0" 0.
    (Obs_ledger.tx_sums_per_byte d ~payload:total);
  (* Receive side: copy-out DMA delivers the tails; only the auto-DMA'd
     packet heads are host-copied, so copies/byte stays near 1. *)
  let rx = Obs_ledger.rx_copies_per_byte d ~payload:total in
  check_bool
    (Printf.sprintf "rx copies/byte %.3f within [0.95, 1.15]" rx)
    true
    (rx >= 0.95 && rx <= 1.15);
  let rx_sums = Obs_ledger.rx_sums_per_byte d ~payload:total in
  check_bool
    (Printf.sprintf "rx host sums/byte %.3f < 0.05 (hw verify)" rx_sums)
    true (rx_sums < 0.05)

let test_unmodified_two_copy_profile () =
  let total = 1 lsl 20 and wsize = 65536 in
  let d =
    run_ttcp ~mode:Stack_mode.Unmodified ~force_uio:false ~wsize ~total
  in
  (* The baseline stack touches each payload byte twice on the transmit
     side (socket copyin + driver gather into the staging frame) and
     checksums it once in software. *)
  check_int "socket copyin copies every byte" total
    (Obs_ledger.copied_bytes d Obs_ledger.Sock_tx_copy);
  (* Segment boundaries mid-cluster materialize a few small internal
     mbufs whose bytes the prefix classifier attributes to the header
     gather, so the payload-gather count can run a hair under [total]. *)
  let gather = Obs_ledger.copied_bytes d Obs_ledger.Drv_tx_gather in
  check_bool
    (Printf.sprintf "driver gather copies ~every byte (%d/%d)" gather total)
    true
    (gather > total - 2048 && gather <= total);
  check_int "no payload SDMA descriptors on the unmodified path" 0
    (Obs_ledger.copied_bytes d Obs_ledger.Sdma_payload);
  let tx = Obs_ledger.tx_copies_per_byte d ~payload:total in
  check_bool
    (Printf.sprintf "tx copies/byte %.4f within [1.99, 2.001]" tx)
    true
    (tx >= 1.99 && tx <= 2.001);
  let tx_sums = Obs_ledger.tx_sums_per_byte d ~payload:total in
  check_bool
    (Printf.sprintf "tx host sums/byte %.4f in [1.0, 1.05]" tx_sums)
    true
    (tx_sums >= 1.0 && tx_sums <= 1.05);
  (* Receive: copy-out into kernel staging (zero-copy wrapped), packet
     heads, and the socket read give the 2-copies-per-byte baseline. *)
  let rx = Obs_ledger.rx_copies_per_byte d ~payload:total in
  check_bool
    (Printf.sprintf "rx copies/byte %.3f within [1.95, 2.1]" rx)
    true
    (rx >= 1.95 && rx <= 2.1);
  let rx_sums = Obs_ledger.rx_sums_per_byte d ~payload:total in
  check_bool
    (Printf.sprintf "rx host sums/byte %.3f in [1.0, 1.1]" rx_sums)
    true
    (rx_sums >= 1.0 && rx_sums <= 1.1)

let test_gather_fallback_counted () =
  (* With the [coalesce_descriptors] ablation on, packets may span M_UIO
     write boundaries, so an odd-length descriptor between two larger
     ones puts a scatter piece at a sub-word offset inside one packet
     and the driver must take the gather (or staging) fallback. Those
     copies used to be invisible; ISSUE 4 makes the driver count them. *)
  let tb =
    Testbed.create
      ~tcp_config:(fun c -> { c with Tcp.coalesce_descriptors = true })
      ()
  in
  let paths = { Socket.default_paths with Socket.force_uio = true } in
  let len1 = 196608 and len2 = 1001 and len3 = 8192 in
  let total = len1 + len2 + len3 in
  let s0 = Obs_ledger.snapshot () in
  let done_ = ref false in
  Testbed.establish_stream tb ~port:5009 ~a_paths:paths ~b_paths:paths
    (fun sa sb ->
      let space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"t" in
      let dst_space =
        Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"t"
      in
      let src1 = Addr_space.alloc space len1 in
      let src2 = Addr_space.alloc space len2 in
      let src3 = Addr_space.alloc space len3 in
      Region.fill_pattern src1 ~seed:99;
      Region.fill_pattern src2 ~seed:100;
      Region.fill_pattern src3 ~seed:101;
      let dst = Addr_space.alloc dst_space total in
      Socket.write sa src1 (fun () -> ());
      Socket.write sa src2 (fun () -> ());
      Socket.write sa src3 (fun () -> Socket.close sa);
      Socket.read_exact sb dst (fun n ->
          check_int "bytes delivered" total n;
          done_ := true));
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  check_bool "transfer finished" true !done_;
  let s = Cab_driver.stats tb.Testbed.a.Testbed.driver in
  let d = Obs_ledger.since s0 in
  check_bool "fallback occurrences counted" true
    (s.Cab_driver.tx_gather_fallbacks > 0
    || s.Cab_driver.tx_staged_segments > 0);
  check_bool "fallback bytes counted" true
    (s.Cab_driver.tx_gather_bytes + s.Cab_driver.tx_staged_bytes > 0);
  check_bool "ledger saw the fallback copies" true
    (Obs_ledger.copied_bytes d Obs_ledger.Drv_tx_gather
     + Obs_ledger.copied_bytes d Obs_ledger.Drv_tx_stage
    > 0)

let test_staged_bounce_counted () =
  (* The driver's §4.5 guard: an M_UIO piece at a word-aligned packet
     offset whose user address is not word aligned cannot be DMAed in
     place, so the driver bounces it through a kernel buffer.  That
     bounce is a host copy: both staged counters and the ledger's
     [Drv_tx_stage] site must see every byte of it. *)
  let tb = Testbed.create () in
  let node = tb.Testbed.a in
  let space = Netstack.make_space node.Testbed.stack ~name:"t" in
  let len = 4096 in
  let region = Region.sub (Addr_space.alloc space (len + 4)) ~off:1 ~len in
  check_bool "source misaligned" false (Region.is_word_aligned region);
  let pkt =
    Mbuf.of_bytes ~pkthdr:true (Bytes.make Ipv4_header.size '\000')
  in
  Mbuf.append pkt
    (Mbuf.make_uio ~region ~notify:None);
  let s0 = Obs_ledger.snapshot () in
  let ifc = Cab_driver.iface node.Testbed.driver in
  ifc.Netif.output ifc pkt ~next_hop:Testbed.addr_b;
  Sim.run ~until:(Simtime.s 1.) tb.Testbed.sim;
  let s = Cab_driver.stats node.Testbed.driver in
  check_int "staged segments" 1 s.Cab_driver.tx_staged_segments;
  check_int "staged bytes" len s.Cab_driver.tx_staged_bytes;
  check_int "ledger staged copy" len
    (Obs_ledger.copied_bytes (Obs_ledger.since s0) Obs_ledger.Drv_tx_stage)

let test_legacy_and_datagram_copies_counted () =
  (* Two host copies outside the stream socket and the CAB driver.  A
     legacy interface (lo0 here) flattens descriptor data with a host
     copy, fusing in the software checksum a pending offload record asks
     for; the rest of the summed range (the transport header) is read for
     the checksum only.  A datagram socket's copy path blits the user
     buffer into a kernel buffer. *)
  let tb = Testbed.create () in
  let stack = tb.Testbed.a.Testbed.stack in
  let lo = Netstack.attach_loopback stack in
  let space = Netstack.make_space stack ~name:"t" in
  let len = 4096 in
  let region = Addr_space.alloc space len in
  let hdr_len = Ipv4_header.size + Udp_header.size in
  let pkt = Mbuf.of_bytes ~pkthdr:true (Bytes.make hdr_len '\000') in
  (match pkt.Mbuf.pkthdr with
  | Some ph ->
      ph.Mbuf.tx_csum <-
        Some (Csum_offload.make_tx ~csum_offset:6 ~skip_bytes:0
             ~seed:Inet_csum.zero)
  | None -> Alcotest.fail "no packet header");
  Mbuf.append pkt
    (Mbuf.make_uio ~region ~notify:None);
  let s0 = Obs_ledger.snapshot () in
  let ifc = Loopback.iface lo in
  ifc.Netif.output ifc pkt ~next_hop:Inaddr.loopback;
  Sim.run ~until:(Simtime.s 1.) tb.Testbed.sim;
  let d = Obs_ledger.since s0 in
  check_int "flatten copies and sums the descriptor bytes" len
    (Obs_ledger.bytes d Obs_ledger.Tcp_flatten Obs_ledger.Copy_sum);
  check_int "flatten sums the transport header" Udp_header.size
    (Obs_ledger.bytes d Obs_ledger.Tcp_flatten Obs_ledger.Sum);
  check_int "host tx copies" len (Obs_ledger.host_tx_copy_bytes d);
  check_int "host tx sums" (Udp_header.size + len)
    (Obs_ledger.host_tx_sum_bytes d);
  let sock =
    Dgram_socket.create ~host:stack.Netstack.host ~space ~proc:"app"
      ~udp:stack.Netstack.udp ~ip:stack.Netstack.ip ~port:4001 ()
  in
  let small = Addr_space.alloc space 100 in
  let s1 = Obs_ledger.snapshot () in
  let sent = ref false in
  Dgram_socket.sendto sock small
    ~dst:{ Udp.addr = Testbed.addr_b; port = 4002 }
    (fun () -> sent := true);
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_bool "datagram sent" true !sent;
  check_int "copied datagram send" 1
    (Dgram_socket.stats sock).Dgram_socket.sent_copy;
  check_int "socket copyin of the datagram" 100
    (Obs_ledger.copied_bytes (Obs_ledger.since s1) Obs_ledger.Sock_tx_copy)

(* ---------- registered subsystems ---------- *)

let test_subsystem_sections_present () =
  (* Creating a testbed registers the per-instance subsystems; the
     process-global pools register at module init. *)
  let tb = Testbed.create () in
  ignore (Ttcp.run ~tb ~wsize:4096 ~total:16384 ~verify:false ());
  List.iter
    (fun s ->
      check_bool (s ^ " section registered") true (section_exported s))
    [
      "mbuf_pool"; "bufpool"; "pin_cache"; "cab.hostA.cab";
      "cab_driver.hostA.cab"; "cab.hostB.cab";
    ];
  let json = Obs.to_json () in
  check_bool "export mentions sdma counters" true
    (Astring.String.is_infix ~affix:"sdma_transfers" json)

let test_policy_registered () =
  let tb = Testbed.create () in
  ignore
    (Ttcp.run ~tb ~wsize:4096 ~total:65536 ~force_uio:false ~adaptive:true
       ~verify:false ());
  (match Obs.find ~section:"path_policy" ~name:"decisions" with
  | Some (Obs.M_gauge g) -> check_bool "decisions recorded" true (g () > 0.)
  | _ -> Alcotest.fail "path_policy gauges not registered");
  (match Obs.find ~section:"path_policy" ~name:"ewma_tables" with
  | Some (Obs.M_table f) ->
      check_bool "EWMA table is a JSON array" true
        (String.length (f ()) >= 2 && (f ()).[0] = '[')
  | _ -> Alcotest.fail "EWMA tables not registered")

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          QCheck_alcotest.to_alcotest prop_histogram_bucket_contains;
          Alcotest.test_case "observe counts" `Quick
            test_histogram_observe_counts;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter/gauge/table json" `Quick
            test_registry_counter_gauge_json;
          Alcotest.test_case "replace semantics" `Quick
            test_registry_replace_semantics;
          Alcotest.test_case "count gauge reads as a gauge" `Quick
            test_registry_int_gauge;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "wraparound drop count" `Quick
            test_ring_wraparound_and_drops;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_ring_disabled_is_noop;
          Alcotest.test_case "emit does not allocate" `Quick
            test_trace_emit_does_not_allocate;
          Alcotest.test_case "export golden" `Quick test_trace_export_golden;
        ] );
      ( "ledger",
        [ Alcotest.test_case "snapshot diff" `Quick test_ledger_snapshot_diff ]
      );
      ( "invariant",
        [
          Alcotest.test_case "single-copy: 1 copy, 0 host csums" `Quick
            test_single_copy_invariant;
          Alcotest.test_case "unmodified: 2 copies, 1 csum" `Quick
            test_unmodified_two_copy_profile;
          Alcotest.test_case "gather fallback counted" `Quick
            test_gather_fallback_counted;
          Alcotest.test_case "staged bounce counted" `Quick
            test_staged_bounce_counted;
          Alcotest.test_case "flatten and datagram copies counted" `Quick
            test_legacy_and_datagram_copies_counted;
        ] );
      ( "subsystems",
        [
          Alcotest.test_case "sections present" `Quick
            test_subsystem_sections_present;
          Alcotest.test_case "path policy registered" `Quick
            test_policy_registered;
        ] );
    ]
