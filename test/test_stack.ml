(* End-to-end integration tests of the full stack over the two-host
   testbed: connection setup, bulk transfer on both stack variants, data
   integrity, checksum strategies, descriptor conversion, retransmission,
   alignment fallback and teardown. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let force_uio = { Socket.default_paths with Socket.force_uio = true }

(* Run a one-direction bulk transfer of [total] bytes using [wsize]-byte
   writes; returns (testbed, sender socket, receiver socket, elapsed). *)
let transfer ?mode ?tcp_config ?drop_a_frames ?a_paths ?b_paths ~wsize ~total
    () =
  let tb = Testbed.create ?mode ?tcp_config ?drop_a_frames () in
  let result = ref None in
  Testbed.establish_stream tb ~port:5001 ?a_paths ?b_paths (fun sa sb ->
      let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"buf" in
      let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"buf" in
      let src = Addr_space.alloc a_space wsize in
      let dst = Addr_space.alloc b_space total in
      Region.fill_pattern src ~seed:42;
      (* Sender: write the same buffer until [total] bytes are sent. *)
      let rec send_loop sent =
        if sent >= total then Socket.close sa
        else Socket.write sa src (fun () -> send_loop (sent + wsize))
      in
      (* Receiver: read everything into [dst]. *)
      let rec recv_loop got =
        if got >= total then result := Some (sa, sb, src, dst, got)
        else
          Socket.read sb
            (Region.sub dst ~off:got ~len:(min wsize (total - got)))
            (fun n ->
              if n = 0 then result := Some (sa, sb, src, dst, got)
              else recv_loop (got + n))
      in
      send_loop 0;
      recv_loop 0);
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  (tb, !result)

let check_pattern_repeats ~src ~dst ~wsize ~total =
  (* dst must be [total/wsize] repetitions of src. *)
  let ok = ref true in
  let nrep = total / wsize in
  for r = 0 to nrep - 1 do
    let part = Region.sub dst ~off:(r * wsize) ~len:wsize in
    if not (Region.equal_contents part src) then ok := false
  done;
  !ok

let test_bulk_single_copy () =
  let wsize = 65536 and total = 1 lsl 20 in
  let tb, result =
    transfer ~mode:Stack_mode.Single_copy ~a_paths:force_uio ~wsize ~total ()
  in
  match result with
  | None -> Alcotest.fail "transfer did not complete"
  | Some (sa, sb, src, dst, got) ->
      check_int "all bytes received" total got;
      check_bool "data integrity" true
        (check_pattern_repeats ~src ~dst ~wsize ~total);
      let st = Tcp.pcb_stats (Socket.pcb sa) in
      (* Every data segment offloaded; only control segments (SYN, FIN,
         window updates — no payload) take the host path. *)
      check_bool "sender offloaded every data segment" true
        (st.Tcp.csum_offloaded_tx >= total / ((32 * 1024) - 40));
      check_bool "host checksums only for control segments" true
        (st.Tcp.csum_host_tx <= 4);
      check_bool "send queue ranges became WCAB" true (st.Tcp.wcab_converted > 0);
      check_int "no retransmissions on clean link" 0 st.Tcp.retransmits;
      let str = Tcp.pcb_stats (Socket.pcb sb) in
      check_bool "receiver verified in hardware" true
        (str.Tcp.csum_hw_verified_rx > 0);
      check_int "no host checksum verification" 0 str.Tcp.csum_host_verified_rx;
      check_int "no checksum failures" 0 str.Tcp.csum_failures_rx;
      let sock_stats = Socket.stats sa in
      check_bool "UIO path used" true (sock_stats.Socket.uio_writes > 0);
      check_int "no copy writes" 0 sock_stats.Socket.copy_writes;
      let drv = Cab_driver.stats tb.Testbed.a.Testbed.driver in
      check_bool "payload DMAed from user memory" true
        (drv.Cab_driver.tx_uio_segments > 0);
      (* Every layer instance counts into its own record: the receiving
         side's send counters stay at zero while the sender's run. *)
      check_int "receiver pcb sent no payload" 0 str.Tcp.bytes_sent;
      check_int "sender pcb received no payload" 0 st.Tcp.bytes_rcvd;
      check_int "receiver socket made no writes" 0
        (Socket.stats sb).Socket.writes;
      check_int "receiver driver sent no uio segments" 0
        (Cab_driver.stats tb.Testbed.b.Testbed.driver)
          .Cab_driver.tx_uio_segments

let test_bulk_unmodified () =
  let wsize = 65536 and total = 1 lsl 20 in
  let _tb, result = transfer ~mode:Stack_mode.Unmodified ~wsize ~total () in
  match result with
  | None -> Alcotest.fail "transfer did not complete"
  | Some (sa, sb, src, dst, got) ->
      check_int "all bytes received" total got;
      check_bool "data integrity" true
        (check_pattern_repeats ~src ~dst ~wsize ~total);
      let st = Tcp.pcb_stats (Socket.pcb sa) in
      check_bool "sender used host checksums" true (st.Tcp.csum_host_tx > 0);
      check_int "nothing offloaded" 0 st.Tcp.csum_offloaded_tx;
      check_int "no WCAB conversion" 0 st.Tcp.wcab_converted;
      let str = Tcp.pcb_stats (Socket.pcb sb) in
      check_bool "receiver verified on host" true
        (str.Tcp.csum_host_verified_rx > 0);
      check_int "no hw verification" 0 str.Tcp.csum_hw_verified_rx;
      let sock_stats = Socket.stats sa in
      check_int "no UIO writes" 0 sock_stats.Socket.uio_writes;
      check_bool "copy writes used" true (sock_stats.Socket.copy_writes > 0)

let test_small_writes () =
  let wsize = 1024 and total = 64 * 1024 in
  let _tb, result =
    transfer ~mode:Stack_mode.Single_copy ~a_paths:force_uio ~wsize ~total ()
  in
  match result with
  | None -> Alcotest.fail "transfer did not complete"
  | Some (_, _, src, dst, got) ->
      check_int "all bytes received" total got;
      check_bool "data integrity" true
        (check_pattern_repeats ~src ~dst ~wsize ~total)

let test_threshold_fallback () =
  (* Below the UIO threshold (16 KByte) the single-copy stack still
     works, via the copying path (§4.4.3). *)
  let wsize = 4096 and total = 64 * 1024 in
  let _tb, result =
    transfer ~mode:Stack_mode.Single_copy ~a_paths:Socket.default_paths
      ~wsize ~total ()
  in
  match result with
  | None -> Alcotest.fail "transfer did not complete"
  | Some (sa, _, src, dst, got) ->
      check_int "all bytes received" total got;
      check_bool "data integrity" true
        (check_pattern_repeats ~src ~dst ~wsize ~total);
      let sock_stats = Socket.stats sa in
      check_int "small writes avoided the UIO path" 0
        sock_stats.Socket.uio_writes;
      check_bool "copy path used" true (sock_stats.Socket.copy_writes > 0)

let test_unaligned_fallback () =
  (* §4.5: unaligned buffers cannot DMA; the write silently takes the
     copying path and everything still works. *)
  let tb = Testbed.create () in
  let total = 128 * 1024 in
  let done_ = ref None in
  Testbed.establish_stream tb ~port:5001 ~a_paths:force_uio (fun sa sb ->
      let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"buf" in
      let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"buf" in
      let src = Addr_space.alloc_at_offset a_space ~page_offset:2 total in
      let dst = Addr_space.alloc b_space total in
      Region.fill_pattern src ~seed:7;
      Socket.write sa src (fun () -> Socket.close sa);
      Socket.read_exact sb dst (fun n -> done_ := Some (sa, src, dst, n)));
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  match !done_ with
  | None -> Alcotest.fail "transfer did not complete"
  | Some (sa, src, dst, n) ->
      check_int "all bytes received" total n;
      check_bool "data integrity" true (Region.equal_contents src dst);
      let st = Socket.stats sa in
      check_int "unaligned write fell back" 1 st.Socket.unaligned_fallbacks;
      check_int "no UIO writes" 0 st.Socket.uio_writes

let test_retransmission () =
  (* Drop two early data frames; the transfer must complete, with the
     retransmit finding its data outboard (header rewrite). *)
  let wsize = 65536 and total = 512 * 1024 in
  let tb, result =
    transfer ~mode:Stack_mode.Single_copy ~a_paths:force_uio
      ~drop_a_frames:[ 3; 5 ] ~wsize ~total ()
  in
  match result with
  | None -> Alcotest.fail "transfer did not complete despite retransmission"
  | Some (sa, _, src, dst, got) ->
      check_int "all bytes received" total got;
      check_bool "data integrity" true
        (check_pattern_repeats ~src ~dst ~wsize ~total);
      let st = Tcp.pcb_stats (Socket.pcb sa) in
      check_bool "retransmissions happened" true (st.Tcp.retransmits > 0);
      check_bool "retransmit data found outboard" true
        (st.Tcp.wcab_retransmit_hits > 0);
      let drv = Cab_driver.stats tb.Testbed.a.Testbed.driver in
      check_bool "header rewrite path exercised" true
        (drv.Cab_driver.tx_rewrites > 0);
      check_int "no checksum failures after rewrite" 0
        (Tcp.pcb_stats (Socket.pcb sa)).Tcp.csum_failures_rx

let test_retransmission_unmodified () =
  let wsize = 65536 and total = 512 * 1024 in
  let _tb, result =
    transfer ~mode:Stack_mode.Unmodified ~drop_a_frames:[ 2 ] ~wsize ~total ()
  in
  match result with
  | None -> Alcotest.fail "transfer did not complete"
  | Some (sa, _, src, dst, got) ->
      check_int "all bytes received" total got;
      check_bool "data integrity" true
        (check_pattern_repeats ~src ~dst ~wsize ~total);
      check_bool "retransmissions happened" true
        ((Tcp.pcb_stats (Socket.pcb sa)).Tcp.retransmits > 0)

let test_eof_and_teardown () =
  let tb = Testbed.create () in
  let got_eof = ref false in
  Testbed.establish_stream tb ~port:5001 (fun sa sb ->
      let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"buf" in
      let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"buf" in
      let src = Addr_space.alloc a_space 8192 in
      let dst = Addr_space.alloc b_space 8192 in
      Region.fill_pattern src ~seed:1;
      Socket.write sa src (fun () -> Socket.close sa);
      Socket.read_exact sb dst (fun n ->
          check_int "payload before EOF" 8192 n;
          Socket.read sb dst (fun n2 ->
              check_int "EOF" 0 n2;
              got_eof := true;
              Socket.close sb)));
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  check_bool "reader saw EOF" true !got_eof

let test_bidirectional () =
  let tb = Testbed.create () in
  let total = 256 * 1024 in
  let a_done = ref false and b_done = ref false in
  Testbed.establish_stream tb ~port:5001 ~a_paths:force_uio
    ~b_paths:force_uio (fun sa sb ->
      let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"buf" in
      let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"buf" in
      let a_src = Addr_space.alloc a_space total in
      let a_dst = Addr_space.alloc a_space total in
      let b_src = Addr_space.alloc b_space total in
      let b_dst = Addr_space.alloc b_space total in
      Region.fill_pattern a_src ~seed:10;
      Region.fill_pattern b_src ~seed:20;
      Socket.write sa a_src (fun () -> ());
      Socket.write sb b_src (fun () -> ());
      Socket.read_exact sb b_dst (fun n ->
          check_int "b got all" total n;
          check_bool "a->b integrity" true (Region.equal_contents a_src b_dst);
          b_done := true);
      Socket.read_exact sa a_dst (fun n ->
          check_int "a got all" total n;
          check_bool "b->a integrity" true (Region.equal_contents b_src a_dst);
          a_done := true));
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  check_bool "both directions completed" true (!a_done && !b_done)

let test_pin_cache_reuse () =
  (* ttcp reuses one buffer: after the first write the pin cache must hit
     every time. *)
  let wsize = 65536 and total = 1 lsl 20 in
  let _tb, result =
    transfer ~mode:Stack_mode.Single_copy ~a_paths:force_uio ~wsize ~total ()
  in
  match result with
  | None -> Alcotest.fail "transfer did not complete"
  | Some (sa, _, _, _, _) ->
      let space = Socket.space sa in
      check_int "one miss (first use)" 1 (Addr_space.cache_misses space);
      check_bool "hits on every reuse" true (Addr_space.cache_hits space >= 14)

(* The largest segment the sender cuts from a bulk write is the MSS. *)
let test_mss_respected () =
  let tb = Testbed.create ~mtu:(16 * 1024) () in
  Obs_trace.configure ~capacity:4096;
  Obs_trace.enable ();
  Testbed.establish_stream tb ~port:5001 (fun sa _sb ->
      let space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
      Socket.write sa (Addr_space.alloc space 65536) ignore);
  Sim.run ~until:(Simtime.s 1.) tb.Testbed.sim;
  Obs_trace.disable ();
  let seg_lens =
    List.filter_map
      (fun (ev, _, len) -> if ev = "packetize" then Some len else None)
      (Dumps.trace_events ())
  in
  Obs_trace.configure ~capacity:1024;
  check_int "mss = mtu - headers" (16 * 1024 - 40)
    (List.fold_left max 0 seg_lens)

let test_sequence_wraparound () =
  (* Start the connection just below 2^32 so the sequence space wraps in
     the middle of the stream. *)
  let tb = Testbed.create () in
  Tcp.set_initial_sequence tb.Testbed.a.Testbed.stack.Netstack.tcp
    0xFFFF8000;
  let wsize = 65536 and total = 1 lsl 20 in
  let result = ref None in
  Testbed.establish_stream tb ~port:5001 ~a_paths:force_uio (fun sa sb ->
      let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"b" in
      let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"b" in
      let src = Addr_space.alloc a_space wsize in
      let dst = Addr_space.alloc b_space total in
      Region.fill_pattern src ~seed:88;
      let rec send sent =
        if sent >= total then Socket.close sa
        else Socket.write sa src (fun () -> send (sent + wsize))
      in
      let rec recv got =
        if got >= total then result := Some (src, dst, got)
        else
          Socket.read sb
            (Region.sub dst ~off:got ~len:(min wsize (total - got)))
            (fun n -> if n = 0 then result := Some (src, dst, got)
              else recv (got + n))
      in
      send 0;
      recv 0);
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  match !result with
  | None -> Alcotest.fail "wraparound transfer did not complete"
  | Some (src, dst, got) ->
      check_int "all bytes across the wrap" total got;
      check_bool "data integrity across the wrap" true
        (check_pattern_repeats ~src ~dst ~wsize ~total)

let test_no_buffer_leaks_after_teardown () =
  (* After a complete transfer and orderly close (past TIME_WAIT), every
     mbuf and every page of both adaptors' network memory must have been
     released. *)
  Mbuf.Pool.reset ();
  let tb = Testbed.create () in
  let done_ = ref false in
  Testbed.establish_stream tb ~port:5001 ~a_paths:force_uio (fun sa sb ->
      let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"x" in
      let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"x" in
      let src = Addr_space.alloc a_sp 262144 in
      let dst = Addr_space.alloc b_sp 262144 in
      Socket.write sa src (fun () -> Socket.close sa);
      Socket.read_exact sb dst (fun _ ->
          Socket.close sb;
          done_ := true));
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  check_bool "transfer completed" true !done_;
  check_int "no live mbufs" 0
    (int_of_float (Obs.value ~section:"mbuf_pool" ~name:"live"));
  check_int "sender netmem empty" 0
    (Netmem.in_use (Cab.netmem tb.Testbed.a.Testbed.cab));
  check_int "receiver netmem empty" 0
    (Netmem.in_use (Cab.netmem tb.Testbed.b.Testbed.cab))

let test_window_scaling_negotiated () =
  (* 512 KByte windows require scaling; throughput over a 1 ms-latency
     link would collapse without it.  A's capture shows the data it sends
     and the ACKs that come back: more than 64 KByte is unacknowledged at
     once only if the window was scaled (an unscaled window field stops
     the sender at 65535 bytes in flight). *)
  let tb = Testbed.create () in
  let cap =
    Capture.attach ~sim:tb.Testbed.sim
      (Cab_driver.iface tb.Testbed.a.Testbed.driver)
  in
  Testbed.establish_stream tb ~port:5001 (fun sa _sb ->
      let space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
      Socket.write sa (Addr_space.alloc space (1 lsl 20)) ignore);
  Sim.run ~until:(Simtime.s 1.) tb.Testbed.sim;
  (* Sequence distance, modulo 2^32. *)
  let dist a b = (b - a) land 0xffffffff in
  let sent_end = ref None and acked = ref None and in_flight = ref 0 in
  List.iter
    (fun (_, dir, summary) ->
      (match (Dumps.tcp_segment summary, !sent_end) with
      | Some (seq, _, len), last when dir = "send" && len > 0 ->
          let e = (seq + len) land 0xffffffff in
          (* A retransmission does not move the highest byte sent. *)
          if Option.fold ~none:true ~some:(fun l -> dist l e < 1 lsl 31) last
          then sent_end := Some e
      | Some (_, ack, _), _ when dir = "recv" -> acked := Some ack
      | _ -> ());
      match (!sent_end, !acked) with
      | Some s, Some a -> in_flight := max !in_flight (dist a s)
      | _ -> ())
    (Dumps.capture cap);
  check_bool
    (Printf.sprintf "bytes in flight (%d) > 64K" !in_flight)
    true (!in_flight > 65535)

let () =
  Alcotest.run "stack"
    [
      ( "bulk",
        [
          Alcotest.test_case "single-copy 1MB" `Quick test_bulk_single_copy;
          Alcotest.test_case "unmodified 1MB" `Quick test_bulk_unmodified;
          Alcotest.test_case "small writes" `Quick test_small_writes;
          Alcotest.test_case "threshold fallback" `Quick
            test_threshold_fallback;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional;
        ] );
      ( "restrictions",
        [
          Alcotest.test_case "unaligned fallback" `Quick
            test_unaligned_fallback;
          Alcotest.test_case "pin cache reuse" `Quick test_pin_cache_reuse;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "retransmission (single-copy)" `Quick
            test_retransmission;
          Alcotest.test_case "retransmission (unmodified)" `Quick
            test_retransmission_unmodified;
        ] );
      ( "control",
        [
          Alcotest.test_case "EOF and teardown" `Quick test_eof_and_teardown;
          Alcotest.test_case "MSS from MTU" `Quick test_mss_respected;
          Alcotest.test_case "window scaling" `Quick
            test_window_scaling_negotiated;
          Alcotest.test_case "sequence wraparound" `Quick
            test_sequence_wraparound;
          Alcotest.test_case "no buffer leaks" `Quick
            test_no_buffer_leaks_after_teardown;
        ] );
    ]
