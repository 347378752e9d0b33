(* Tests for the CAB adaptor model: DMA engines, checksum engines,
   auto-DMA receive, retransmit header rewrite, network-memory limits. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let profile = Host_profile.alpha400

(* Two CABs connected by a HIPPI link. *)
type pair = {
  sim : Sim.t;
  cab_a : Cab.t;
  cab_b : Cab.t;
}

let make_pair ?(netmem_pages = 512) () =
  let sim = Sim.create () in
  let link = Hippi_link.create ~sim () in
  let a =
    Cab.create ~sim ~profile ~name:"cabA" ~netmem_pages ~hippi_addr:1
      ~transmit:(fun frame ~dst:_ ~channel:_ ->
        Hippi_link.send link ~from:Hippi_link.A frame)
      ()
  and b =
    Cab.create ~sim ~profile ~name:"cabB" ~netmem_pages ~hippi_addr:2
      ~transmit:(fun frame ~dst:_ ~channel:_ ->
        Hippi_link.send link ~from:Hippi_link.B frame)
      ()
  in
  Hippi_link.set_rx link Hippi_link.B (fun frame -> Cab.deliver b frame);
  Hippi_link.set_rx link Hippi_link.A (fun frame -> Cab.deliver a frame);
  { sim; cab_a = a; cab_b = b }

let hdr_total = Hippi_framing.size + Ipv4_header.size + Tcp_header.base_size

(* Build the header block for a TCP-like packet with seed in the checksum
   field, and the matching offload record. *)
let build_header ~payload_len ~pseudo =
  let hdr = Bytes.create hdr_total in
  Hippi_framing.encode
    (Hippi_framing.make ~src:1 ~dst:2 ~channel:0
       ~payload_len:(hdr_total - Hippi_framing.size + payload_len))
    hdr ~off:0;
  let ip =
    Ipv4_header.make ~proto:Ipv4_header.proto_tcp ~src:(Inaddr.v 10 0 0 1)
      ~dst:(Inaddr.v 10 0 0 2)
      ~total_len:(Ipv4_header.size + Tcp_header.base_size + payload_len)
      ()
  in
  Ipv4_header.encode ip hdr ~off:Hippi_framing.size;
  let tcp = Tcp_header.make ~src_port:1000 ~dst_port:2000 ~seq:1 ~ack:0 () in
  Tcp_header.encode tcp ~csum:(Inet_csum.fold pseudo) hdr
    ~off:(Hippi_framing.size + Ipv4_header.size);
  let csum =
    Csum_offload.make_tx
      ~csum_offset:
        (Hippi_framing.size + Ipv4_header.size + Tcp_header.csum_field_offset)
      ~skip_bytes:(Hippi_framing.size + Ipv4_header.size)
      ~seed:pseudo
  in
  (hdr, csum)

let pseudo_for payload_len =
  Inet_csum.pseudo_header ~src:0x0a000001l ~dst:0x0a000002l ~proto:6
    ~len:(Tcp_header.base_size + payload_len)

(* Send one offloaded packet from user memory through the pair; return the
   receive info seen by cab_b's driver. *)
let send_one ?(payload_len = 8192) pair =
  let space = Addr_space.create ~profile ~name:"app" in
  let user = Addr_space.alloc space payload_len in
  Region.fill_pattern user ~seed:99;
  let pseudo = pseudo_for payload_len in
  let hdr, csum = build_header ~payload_len ~pseudo in
  let got = ref None in
  Cab.set_interrupt_handler pair.cab_b (fun i ->
      match i with Cab.Rx_packet info -> got := Some info | Cab.Sdma_done -> ());
  Cab.set_interrupt_handler pair.cab_a (fun _ -> ());
  let pkt =
    match Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len) with
    | Some p -> p
    | None -> Alcotest.fail "netmem exhausted"
  in
  Cab.sdma_header pair.cab_a pkt ~header:hdr ~csum:(Some csum) ();
  Cab.sdma_payload pair.cab_a pkt ~src:(Cab.From_user user) ~pkt_off:hdr_total
    ();
  Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:false;
  Sim.run pair.sim;
  (user, pseudo, !got)

let test_tx_rx_roundtrip () =
  let pair = make_pair () in
  let user, pseudo, got = send_one pair in
  match got with
  | None -> Alcotest.fail "no receive interrupt"
  | Some info ->
      check_int "total length" (hdr_total + 8192) info.Cab.rx_total_len;
      check_bool "large packet not complete in autodma" false
        info.Cab.rx_complete;
      check_int "head is L words" (4 * Cab.autodma_words pair.cab_b)
        info.Cab.rx_head_len;
      (* Engine-assisted verification: engine sum + skipped transport bytes
         + pseudo-header folds to 0xffff. *)
      let transport_off = Hippi_framing.size + Ipv4_header.size in
      let rx_start = 4 * Hippi_framing.rx_csum_start_words in
      let skipped =
        Inet_csum.of_bytes ~off:transport_off ~len:(rx_start - transport_off)
          info.Cab.rx_head
      in
      check_bool "hardware checksum verifies" true
        (Csum_offload.rx_verify
           (Csum_offload.make_rx ~engine_sum:info.Cab.rx_engine_sum
              ~rx_start)
           ~skipped ~pseudo);
      (* Copy the payload out and compare with what the user sent. *)
      let space2 = Addr_space.create ~profile ~name:"rcv" in
      let dst = Addr_space.alloc space2 8192 in
      let done_ = ref false in
      Cab.sdma_copy_out pair.cab_b info.Cab.rx_pkt ~off:hdr_total ~len:8192
        ~dst:(Netif.To_user (space2, dst))
        ~on_complete:(fun () -> done_ := true)
        ();
      Sim.run pair.sim;
      check_bool "copy-out completed" true !done_;
      check_bool "payload intact end to end" true
        (Region.equal_contents user dst);
      Cab.rx_free pair.cab_b info.Cab.rx_pkt

let test_small_packet_complete () =
  let pair = make_pair () in
  let _, _, got = send_one ~payload_len:256 pair in
  match got with
  | None -> Alcotest.fail "no receive interrupt"
  | Some info ->
      check_bool "fits in auto-DMA buffer" true info.Cab.rx_complete;
      check_int "head covers all" (hdr_total + 256) info.Cab.rx_head_len;
      Cab.rx_free pair.cab_b info.Cab.rx_pkt

let test_checksum_corruption_detected () =
  (* Flip a bit mid-flight by wiring a mangling link. *)
  let sim = Sim.create () in
  let got = ref None in
  let cab_b = ref None in
  let cab_a =
    Cab.create ~sim ~profile ~name:"cabA" ~netmem_pages:256 ~hippi_addr:1
      ~transmit:(fun frame ~dst:_ ~channel:_ ->
        Bytes.set_uint8 frame (hdr_total + 100)
          (Bytes.get_uint8 frame (hdr_total + 100) lxor 0x01);
        Cab.deliver (Option.get !cab_b) frame)
      ()
  in
  Cab.set_interrupt_handler cab_a (fun _ -> ());
  let b =
    Cab.create ~sim ~profile ~name:"cabB" ~netmem_pages:256 ~hippi_addr:2
      ~transmit:(fun _ ~dst:_ ~channel:_ -> ())
      ()
  in
  cab_b := Some b;
  Cab.set_interrupt_handler b (fun i ->
      match i with Cab.Rx_packet info -> got := Some info | _ -> ());
  let payload_len = 4096 in
  let pseudo = pseudo_for payload_len in
  let hdr, csum = build_header ~payload_len ~pseudo in
  let payload = Bytes.create payload_len in
  let pkt = Option.get (Cab.tx_alloc cab_a ~len:(hdr_total + payload_len)) in
  Cab.sdma_header cab_a pkt ~header:hdr ~csum:(Some csum) ();
  Cab.sdma_payload cab_a pkt ~src:(Cab.From_kernel payload)
    ~pkt_off:hdr_total ();
  Cab.mdma_send cab_a pkt ~dst:2 ~channel:0 ~keep:false;
  Sim.run sim;
  match !got with
  | None -> Alcotest.fail "no receive interrupt"
  | Some info ->
      let transport_off = Hippi_framing.size + Ipv4_header.size in
      let rx_start = 4 * Hippi_framing.rx_csum_start_words in
      let skipped =
        Inet_csum.of_bytes ~off:transport_off ~len:(rx_start - transport_off)
          info.Cab.rx_head
      in
      check_bool "corrupted payload rejected" false
        (Csum_offload.rx_verify
           (Csum_offload.make_rx ~engine_sum:info.Cab.rx_engine_sum ~rx_start)
           ~skipped ~pseudo)

let test_retransmit_header_rewrite () =
  (* Keep the packet, rewrite its header with a new seq/seed, resend: the
     receiver-side checksum must still verify and the payload must not be
     re-DMAed. *)
  let pair = make_pair () in
  let payload_len = 8192 in
  let space = Addr_space.create ~profile ~name:"app" in
  let user = Addr_space.alloc space payload_len in
  Region.fill_pattern user ~seed:5;
  let pseudo = pseudo_for payload_len in
  let hdr, csum = build_header ~payload_len ~pseudo in
  let rxs = ref [] in
  Cab.set_interrupt_handler pair.cab_b (fun i ->
      match i with Cab.Rx_packet info -> rxs := info :: !rxs | _ -> ());
  Cab.set_interrupt_handler pair.cab_a (fun _ -> ());
  let pkt =
    Option.get (Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len))
  in
  Cab.sdma_header pair.cab_a pkt ~header:hdr ~csum:(Some csum) ();
  Cab.sdma_payload pair.cab_a pkt ~src:(Cab.From_user user) ~pkt_off:hdr_total
    ();
  Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:true;
  Sim.run pair.sim;
  let bytes_after_first = (Cab.stats pair.cab_a).Cab.sdma_bytes in
  (* Retransmit with a different TCP header (new ack value). *)
  let hdr2 = Bytes.copy hdr in
  let tcp2 =
    Tcp_header.make ~flags:[ Tcp_header.ACK ] ~src_port:1000 ~dst_port:2000
      ~seq:1 ~ack:777 ()
  in
  Tcp_header.encode tcp2 ~csum:(Inet_csum.fold pseudo) hdr2
    ~off:(Hippi_framing.size + Ipv4_header.size);
  Cab.tx_rewrite_header pair.cab_a pkt ~header:hdr2 ~csum:(Some csum) ();
  Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:true;
  Sim.run pair.sim;
  let bytes_after_second = (Cab.stats pair.cab_a).Cab.sdma_bytes in
  check_int "only the header crossed the bus again" hdr_total
    (bytes_after_second - bytes_after_first);
  (match !rxs with
  | [ second; _first ] ->
      let transport_off = Hippi_framing.size + Ipv4_header.size in
      let rx_start = 4 * Hippi_framing.rx_csum_start_words in
      let skipped =
        Inet_csum.of_bytes ~off:transport_off ~len:(rx_start - transport_off)
          second.Cab.rx_head
      in
      check_bool "retransmitted packet verifies" true
        (Csum_offload.rx_verify
           (Csum_offload.make_rx ~engine_sum:second.Cab.rx_engine_sum
              ~rx_start)
           ~skipped ~pseudo);
      (* The new header contents made it out. *)
      (match
         Tcp_header.decode second.Cab.rx_head ~off:transport_off
           ~len:Tcp_header.base_size
       with
      | Ok t -> check_int "new ack in retransmit" 777 t.Tcp_header.ack
      | Error e -> Alcotest.fail e)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 receptions, got %d" (List.length l)));
  Cab.tx_free pair.cab_a pkt

(* ---------- chained SDMA and batched notifications ---------- *)

(* The same two-segment packet posted as one descriptor chain and as three
   individual doorbells: the chain must move the same bytes, fire every
   per-segment hook, and verify at the receiver.  On the bus the chain is
   cheaper by exactly the saved engine starts — one doorbell arms the
   engine once and it walks the prebuilt descriptor list, where three
   individual posts each pay the engine start; the per-byte transfer time
   is identical (chaining merges control events, it does not shortcut the
   bus). *)
let test_sdma_chain_equivalent () =
  let payload_len = 8192 in
  let half = payload_len / 2 in
  let run ~chained =
    let pair = make_pair () in
    let space = Addr_space.create ~profile ~name:"app" in
    let user = Addr_space.alloc space payload_len in
    Region.fill_pattern user ~seed:42;
    let pseudo = pseudo_for payload_len in
    let hdr, csum = build_header ~payload_len ~pseudo in
    let got = ref None in
    Cab.set_interrupt_handler pair.cab_b (fun i ->
        match i with Cab.Rx_packet info -> got := Some info | _ -> ());
    Cab.set_interrupt_handler pair.cab_a (fun _ -> ());
    let pkt =
      Option.get (Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len))
    in
    let seg_done = ref 0 in
    let lo = Region.sub user ~off:0 ~len:half
    and hi = Region.sub user ~off:half ~len:half in
    if chained then
      Cab.sdma_chain pair.cab_a pkt
        ~segs:
          [
            Cab.Seg_header
              {
                len = Bytes.length hdr;
                fill = (fun buf -> Bytes.blit hdr 0 buf 0 (Bytes.length hdr));
                csum = Some csum;
              };
            Cab.Seg_payload
              {
                src = Cab.From_user lo;
                pkt_off = hdr_total;
                on_seg_complete = Some (fun () -> incr seg_done);
              };
            Cab.Seg_payload
              {
                src = Cab.From_user hi;
                pkt_off = hdr_total + half;
                on_seg_complete = Some (fun () -> incr seg_done);
              };
          ]
        ()
    else begin
      Cab.sdma_header pair.cab_a pkt ~header:hdr ~csum:(Some csum) ();
      Cab.sdma_payload pair.cab_a pkt ~src:(Cab.From_user lo)
        ~pkt_off:hdr_total
        ~on_complete:(fun () -> incr seg_done)
        ();
      Cab.sdma_payload pair.cab_a pkt ~src:(Cab.From_user hi)
        ~pkt_off:(hdr_total + half)
        ~on_complete:(fun () -> incr seg_done)
        ()
    end;
    Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:false;
    Sim.run pair.sim;
    check_int "both segment hooks ran" 2 !seg_done;
    let info =
      match !got with
      | Some i -> i
      | None -> Alcotest.fail "no receive interrupt"
    in
    check_int "full length arrived" (hdr_total + payload_len)
      info.Cab.rx_total_len;
    let transport_off = Hippi_framing.size + Ipv4_header.size in
    let rx_start = 4 * Hippi_framing.rx_csum_start_words in
    let skipped =
      Inet_csum.of_bytes ~off:transport_off ~len:(rx_start - transport_off)
        info.Cab.rx_head
    in
    check_bool "offloaded checksum verifies" true
      (Csum_offload.rx_verify
         (Csum_offload.make_rx ~engine_sum:info.Cab.rx_engine_sum ~rx_start)
         ~skipped ~pseudo);
    let s = Cab.stats pair.cab_a in
    (s.Cab.sdma_bytes, Cab.bus_busy_time pair.cab_a, s.Cab.sdma_chains)
  in
  let bytes_c, bus_c, chains_c = run ~chained:true in
  let bytes_i, bus_i, chains_i = run ~chained:false in
  check_int "chain moved the same bytes" bytes_i bytes_c;
  (* Three posts pay three engine starts; the chain pays one.  The byte
     time is rounded per doorbell, so allow a nanosecond of slack per
     merged descriptor. *)
  let saved_starts = Simtime.us (2. *. profile.Host_profile.dma_engine_us) in
  let gap = abs (Simtime.sub bus_i saved_starts - bus_c) in
  check_bool "chain saved exactly two engine starts" true (gap <= 2);
  check_int "one chained doorbell" 1 chains_c;
  check_int "individual posts are not chains" 0 chains_i

let test_batch_interrupt_handler () =
  (* The NAPI-style handler receives every notification exactly once, in
     order, and the burst counters add up. *)
  let pair = make_pair () in
  Cab.set_intr_budget pair.cab_b 4;
  check_int "budget readable" 4 (Cab.intr_budget pair.cab_b);
  let bursts = ref 0 and seen = ref [] in
  Cab.set_batch_interrupt_handler pair.cab_b (fun evs ->
      incr bursts;
      check_bool "bursts are never empty" true (evs <> []);
      check_bool "bursts respect the budget" true (List.length evs <= 4);
      List.iter
        (function
          | Cab.Rx_packet info ->
              seen := info.Cab.rx_total_len :: !seen;
              Cab.rx_free pair.cab_b info.Cab.rx_pkt
          | Cab.Sdma_done -> ())
        evs);
  Cab.set_interrupt_handler pair.cab_a (fun _ -> ());
  let sizes = [ 1024; 2048; 4096; 512; 8192 ] in
  List.iter (fun n -> Cab.deliver pair.cab_b (Bytes.create n)) sizes;
  Sim.run pair.sim;
  Alcotest.(check (list int))
    "every packet notified once, in arrival order" sizes (List.rev !seen);
  let s = Cab.stats pair.cab_b in
  check_int "stats count individual notifications" (List.length sizes)
    s.Cab.intr_events;
  check_int "stats count handler bursts" !bursts s.Cab.interrupts;
  check_bool "no more bursts than events" true (!bursts <= List.length sizes);
  (* Lose every interrupt so the notifications pile up, then poll: the
     backlog drains in budget-sized bursts that keep arrival order. *)
  Fault.arm ~seed:1;
  Fault.plan ~site:"cab.lost_intr" (Fault.Every_n 1);
  seen := [];
  bursts := 0;
  List.iter (fun n -> Cab.deliver pair.cab_b (Bytes.create n)) sizes;
  Sim.run pair.sim;
  Fault.disarm ();
  check_int "lost interrupts leave the backlog queued" (List.length sizes)
    (Cab.pending_events pair.cab_b);
  ignore (Cab.poll pair.cab_b : int);
  Sim.run pair.sim;
  Alcotest.(check (list int))
    "backlog delivered once, in arrival order" sizes (List.rev !seen);
  check_int "backlog split by the budget" 2 !bursts

let test_interrupt_handler_latest_wins () =
  (* An application (e.g. raw HIPPI) installing a per-event handler must
     take the adaptor over from a previously installed batch handler. *)
  let pair = make_pair () in
  let batch_calls = ref 0 and single_calls = ref 0 in
  Cab.set_batch_interrupt_handler pair.cab_b (fun _ -> incr batch_calls);
  Cab.set_interrupt_handler pair.cab_b (fun i ->
      (match i with
      | Cab.Rx_packet info -> Cab.rx_free pair.cab_b info.Cab.rx_pkt
      | Cab.Sdma_done -> ());
      incr single_calls);
  Cab.deliver pair.cab_b (Bytes.create 2048);
  Sim.run pair.sim;
  check_int "per-event handler took over" 1 !single_calls;
  check_int "stale batch handler silenced" 0 !batch_calls

let test_alignment_enforced () =
  let pair = make_pair () in
  let space = Addr_space.create ~profile ~name:"app" in
  let misaligned = Addr_space.alloc_at_offset space ~page_offset:2 1024 in
  let pkt = Option.get (Cab.tx_alloc pair.cab_a ~len:4096) in
  check_bool "misaligned user source rejected" true
    (try
       Cab.sdma_payload pair.cab_a pkt ~src:(Cab.From_user misaligned)
         ~pkt_off:0 ();
       false
     with Invalid_argument _ -> true);
  check_bool "odd packet offset rejected" true
    (try
       Cab.sdma_payload pair.cab_a pkt ~src:(Cab.From_kernel (Bytes.create 64))
         ~pkt_off:2 ();
       false
     with Invalid_argument _ -> true)

let test_netmem_exhaustion_drops () =
  (* Tiny receive memory: back-to-back packets overflow it. *)
  let sim = Sim.create () in
  let cab =
    Cab.create ~sim ~profile ~name:"cab" ~netmem_pages:2 ~hippi_addr:2
      ~transmit:(fun _ ~dst:_ ~channel:_ -> ())
      ()
  in
  Cab.set_interrupt_handler cab (fun _ -> ());
  Cab.deliver cab (Bytes.create 8192);
  Cab.deliver cab (Bytes.create 8192);
  Sim.run sim;
  let s = Cab.stats cab in
  check_int "one accepted" 1 s.Cab.rx_packets;
  check_int "one dropped" 1 s.Cab.rx_dropped

let test_dma_not_cpu_time () =
  (* The whole transfer must cost zero host CPU: DMA runs on the adaptor. *)
  let pair = make_pair () in
  let cpu = Cpu.create ~sim:pair.sim ~name:"host" in
  let _ = cpu in
  let _, _, got = send_one pair in
  check_bool "received" true (got <> None);
  check_int "no host CPU consumed by DMA" 0 (Cpu.busy cpu);
  check_bool "bus was busy instead" true (Cab.bus_busy_time pair.cab_a > 0)

(* Property: any segmentation of any payload, transmitted with offload
   (including a random number of header rewrites), verifies end to end. *)
let prop_offload_any_program =
  QCheck.Test.make ~name:"offloaded packets verify for any SDMA program"
    ~count:100
    QCheck.(
      triple
        (string_of_size Gen.(4 -- 2000))
        (list_of_size Gen.(0 -- 4) (int_range 1 500))
        (int_bound 2))
    (fun (payload_str, _splits, rewrites) ->
      (* Word-align the payload length (the stack guarantees this on the
         scatter path; odd tails go through the gather path, tested at the
         stack level). *)
      let payload_len = String.length payload_str / 4 * 4 in
      QCheck.assume (payload_len > 0);
      let pair = make_pair () in
      let payload = Bytes.sub (Bytes.of_string payload_str) 0 payload_len in
      let pseudo = pseudo_for payload_len in
      let hdr, csum = build_header ~payload_len ~pseudo in
      let received = ref [] in
      Cab.set_interrupt_handler pair.cab_b (fun i ->
          match i with
          | Cab.Rx_packet info ->
              received := info :: !received;
              Cab.rx_free pair.cab_b info.Cab.rx_pkt
          | Cab.Sdma_done -> ());
      Cab.set_interrupt_handler pair.cab_a (fun _ -> ());
      let pkt =
        Option.get (Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len))
      in
      Cab.sdma_header pair.cab_a pkt ~header:hdr ~csum:(Some csum) ();
      Cab.sdma_payload pair.cab_a pkt ~src:(Cab.From_kernel payload)
        ~pkt_off:hdr_total ();
      Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:true;
      Sim.run pair.sim;
      (* A few header rewrites (retransmissions with fresh seeds). *)
      for _ = 1 to rewrites do
        let hdr2 = Bytes.copy hdr in
        Cab.tx_rewrite_header pair.cab_a pkt ~header:hdr2 ~csum:(Some csum) ();
        Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:true;
        Sim.run pair.sim
      done;
      Cab.tx_free pair.cab_a pkt;
      let transport_off = Hippi_framing.size + Ipv4_header.size in
      let rx_start = 4 * Hippi_framing.rx_csum_start_words in
      List.length !received = rewrites + 1
      && List.for_all
           (fun (info : Cab.rx_info) ->
             let skipped =
               Inet_csum.of_bytes ~off:transport_off
                 ~len:(rx_start - transport_off) info.Cab.rx_head
             in
             Csum_offload.rx_verify
               (Csum_offload.make_rx ~engine_sum:info.Cab.rx_engine_sum
                  ~rx_start)
               ~skipped ~pseudo)
           !received)

let () =
  Alcotest.run "cab"
    [
      ( "datapath",
        [
          Alcotest.test_case "tx/rx roundtrip" `Quick test_tx_rx_roundtrip;
          Alcotest.test_case "small packet complete" `Quick
            test_small_packet_complete;
          Alcotest.test_case "corruption detected" `Quick
            test_checksum_corruption_detected;
          Alcotest.test_case "retransmit rewrite" `Quick
            test_retransmit_header_rewrite;
        ] );
      ( "batching",
        [
          Alcotest.test_case "sdma chain equivalent to posts" `Quick
            test_sdma_chain_equivalent;
          Alcotest.test_case "batch interrupt handler" `Quick
            test_batch_interrupt_handler;
          Alcotest.test_case "latest handler wins" `Quick
            test_interrupt_handler_latest_wins;
        ] );
      ( "restrictions",
        [
          Alcotest.test_case "alignment" `Quick test_alignment_enforced;
          Alcotest.test_case "netmem exhaustion" `Quick
            test_netmem_exhaustion_drops;
          Alcotest.test_case "DMA is not CPU time" `Quick test_dma_not_cpu_time;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_offload_any_program ]);
    ]
