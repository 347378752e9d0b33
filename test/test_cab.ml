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

(* Where the receive checksum engine starts summing. *)
let rx_csum_start = 4 * Hippi_framing.rx_csum_start_words

(* Build the header block for a TCP-like packet with seed in the checksum
   field, and the matching offload record. *)
let build_header ~payload_len ~pseudo =
  let hdr = Bytes.create hdr_total in
  Hippi_framing.encode hdr ~off:0 ~src:1 ~dst:2 ~channel:0
    ~payload_len:(hdr_total - Hippi_framing.size + payload_len);
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

(* Descriptor-chain segments for the tests' hand-built packets. *)
let header_seg ?csum hdr =
  Cab.Seg_header
    {
      len = Bytes.length hdr;
      fill = (fun buf -> Bytes.blit hdr 0 buf 0 (Bytes.length hdr));
      csum;
    }

let payload_seg ?on_seg_complete src ~pkt_off =
  Cab.Seg_payload { src; pkt_off; on_seg_complete }

let kernel_src b = Cab.From_kernel { buf = b; off = 0; len = Bytes.length b }

(* Per-event view of the burst handler. *)
let on_each cab f =
  Cab.set_batch_interrupt_handler cab (fun burst n ->
      for i = 0 to n - 1 do
        f burst.(i)
      done)

let no_handler cab = Cab.set_batch_interrupt_handler cab (fun _ _ -> ())

(* A single adaptor whose handler keeps every received packet's info. *)
let rx_rig ?(netmem_pages = 64) () =
  let sim = Sim.create () in
  let cab =
    Cab.create ~sim ~profile ~name:"rx-rig" ~netmem_pages ~hippi_addr:2
      ~transmit:(fun _ ~dst:_ ~channel:_ -> ())
      ()
  in
  let got = ref [] in
  on_each cab (function
    | Cab.Rx_packet info -> got := info :: !got
    | Cab.Sdma_done -> ());
  (sim, cab, got)

let pseudo_for payload_len =
  Inet_csum.pseudo_header ~src:0x0a000001l ~dst:0x0a000002l ~proto:6
    ~len:(Tcp_header.base_size + payload_len)

(* The receiver's offloaded verification of a received packet, which
   must still be live: the engine sum, plus the transport bytes before the
   engine's start read from the auto-DMA'd head, plus the pseudo-header. *)
let rx_verifies ~pseudo info =
  let transport_off = Hippi_framing.size + Ipv4_header.size in
  let skipped =
    Inet_csum.of_bytes ~off:transport_off
      ~len:(rx_csum_start - transport_off)
      info.Cab.rx_head
  in
  Csum_offload.rx_verify
    (Csum_offload.make_rx ~engine_sum:(Cab.rx_engine_sum info)
       ~rx_start:rx_csum_start)
    ~skipped ~pseudo

(* Send one offloaded packet from user memory through the pair; return the
   receive info seen by cab_b's driver. *)
let send_one ?(payload_len = 8192) pair =
  let space = Addr_space.create ~profile ~name:"app" () in
  let user = Addr_space.alloc space payload_len in
  Region.fill_pattern user ~seed:99;
  let pseudo = pseudo_for payload_len in
  let hdr, csum = build_header ~payload_len ~pseudo in
  let got = ref None in
  on_each pair.cab_b (fun i ->
      match i with Cab.Rx_packet info -> got := Some info | Cab.Sdma_done -> ());
  no_handler pair.cab_a;
  let pkt =
    match Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len) with
    | p -> p
    | exception Netmem.Exhausted -> Alcotest.fail "netmem exhausted"
  in
  Cab.sdma_chain pair.cab_a pkt
    ~segs:
      [
        header_seg ~csum hdr;
        payload_seg (Cab.From_user user) ~pkt_off:hdr_total;
      ]
    ~interrupt:false ~on_complete:ignore;
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
      (* L is 176 words unless the host selects another. *)
      check_int "head is L words" (4 * 176) info.Cab.rx_head_len;
      (* Engine-assisted verification: engine sum + skipped transport bytes
         + pseudo-header folds to 0xffff. *)
      check_bool "hardware checksum verifies" true (rx_verifies ~pseudo info);
      (* Copy the payload out and compare with what the user sent. *)
      let space2 = Addr_space.create ~profile ~name:"rcv" () in
      let dst = Addr_space.alloc space2 8192 in
      let done_ = ref false in
      Cab.sdma_copy_out pair.cab_b info.Cab.rx_pkt ~off:hdr_total ~len:8192
        ~dst:(Netif.To_user dst)
        ~interrupt:false
        ~on_complete:(fun () -> done_ := true);
      Sim.run pair.sim;
      check_bool "copy-out completed" true !done_;
      check_bool "payload intact end to end" true
        (Region.equal_contents user dst);
      Cab.free pair.cab_b info.Cab.rx_pkt

let test_small_packet_complete () =
  let pair = make_pair () in
  let _, _, got = send_one ~payload_len:256 pair in
  match got with
  | None -> Alcotest.fail "no receive interrupt"
  | Some info ->
      check_bool "fits in auto-DMA buffer" true info.Cab.rx_complete;
      check_int "head covers all" (hdr_total + 256) info.Cab.rx_head_len;
      Cab.free pair.cab_b info.Cab.rx_pkt

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
  no_handler cab_a;
  let b =
    Cab.create ~sim ~profile ~name:"cabB" ~netmem_pages:256 ~hippi_addr:2
      ~transmit:(fun _ ~dst:_ ~channel:_ -> ())
      ()
  in
  cab_b := Some b;
  on_each b (fun i ->
      match i with Cab.Rx_packet info -> got := Some info | _ -> ());
  let payload_len = 4096 in
  let pseudo = pseudo_for payload_len in
  let hdr, csum = build_header ~payload_len ~pseudo in
  let payload = Bytes.create payload_len in
  let pkt = Cab.tx_alloc cab_a ~len:(hdr_total + payload_len) in
  Cab.sdma_chain cab_a pkt
    ~segs:
      [
        header_seg ~csum hdr;
        payload_seg (kernel_src payload) ~pkt_off:hdr_total;
      ]
    ~interrupt:false ~on_complete:ignore;
  Cab.mdma_send cab_a pkt ~dst:2 ~channel:0 ~keep:false;
  Sim.run sim;
  match !got with
  | None -> Alcotest.fail "no receive interrupt"
  | Some info ->
      check_bool "corrupted payload rejected" false (rx_verifies ~pseudo info)

let test_retransmit_header_rewrite () =
  (* Keep the packet, rewrite its header with a new seq/seed, resend: the
     receiver-side checksum must still verify and the payload must not be
     re-DMAed. *)
  let pair = make_pair () in
  let payload_len = 8192 in
  let space = Addr_space.create ~profile ~name:"app" () in
  let user = Addr_space.alloc space payload_len in
  Region.fill_pattern user ~seed:5;
  let pseudo = pseudo_for payload_len in
  let hdr, csum = build_header ~payload_len ~pseudo in
  let rxs = ref [] in
  on_each pair.cab_b (fun i ->
      match i with Cab.Rx_packet info -> rxs := info :: !rxs | _ -> ());
  no_handler pair.cab_a;
  let pkt =
    Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len)
  in
  let body = payload_seg (Cab.From_user user) ~pkt_off:hdr_total in
  Cab.sdma_chain pair.cab_a pkt ~segs:[ header_seg ~csum hdr; body ]
    ~interrupt:false ~on_complete:ignore;
  Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:true;
  Sim.run pair.sim;
  let bytes_after_first = (Cab.stats pair.cab_a).Cab.sdma_bytes in
  (* A held packet takes nothing but a header of its held length. *)
  let rejected segs =
    try
      Cab.sdma_chain pair.cab_a pkt ~segs ~interrupt:false
        ~on_complete:ignore;
      false
    with Invalid_argument _ -> true
  in
  check_bool "held packet refuses payload" true
    (rejected [ header_seg ~csum hdr; body ]);
  check_bool "held packet refuses a resized header" true
    (rejected [ header_seg ~csum (Bytes.create (hdr_total + 4)) ]);
  (* Retransmit with a different TCP header (new ack value). *)
  let hdr2 = Bytes.copy hdr in
  let tcp2 =
    Tcp_header.make ~flags:[ Tcp_header.ACK ] ~src_port:1000 ~dst_port:2000
      ~seq:1 ~ack:777 ()
  in
  Tcp_header.encode tcp2 ~csum:(Inet_csum.fold pseudo) hdr2
    ~off:(Hippi_framing.size + Ipv4_header.size);
  Cab.sdma_chain pair.cab_a pkt ~segs:[ header_seg ~csum hdr2 ]
    ~interrupt:false ~on_complete:ignore;
  Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:true;
  Sim.run pair.sim;
  let bytes_after_second = (Cab.stats pair.cab_a).Cab.sdma_bytes in
  check_int "only the header crossed the bus again" hdr_total
    (bytes_after_second - bytes_after_first);
  (match !rxs with
  | [ second; _first ] ->
      let transport_off = Hippi_framing.size + Ipv4_header.size in
      check_bool "retransmitted packet verifies" true
        (rx_verifies ~pseudo second);
      (* The new header contents made it out. *)
      (match
         Tcp_header.decode second.Cab.rx_head ~off:transport_off
           ~len:Tcp_header.base_size
       with
      | Ok t -> check_int "new ack in retransmit" 777 t.Tcp_header.ack
      | Error e -> Alcotest.fail e)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 receptions, got %d" (List.length l)));
  Cab.free pair.cab_a pkt

(* ---------- chained SDMA and batched notifications ---------- *)

(* The same two-segment packet posted as one descriptor chain and as three
   one-segment chains: the chain must move the same bytes, fire every
   per-segment hook, and verify at the receiver.  On the bus the chain is
   cheaper by exactly the saved engine starts — one doorbell arms the
   engine once and it walks the prebuilt descriptor list, where three
   one-segment posts each pay the engine start; the per-byte transfer time
   is identical (chaining merges control events, it does not shortcut the
   bus). *)
let test_sdma_chain_equivalent () =
  let payload_len = 8192 in
  let half = payload_len / 2 in
  let run ~chained =
    let pair = make_pair () in
    let space = Addr_space.create ~profile ~name:"app" () in
    let user = Addr_space.alloc space payload_len in
    Region.fill_pattern user ~seed:42;
    let pseudo = pseudo_for payload_len in
    let hdr, csum = build_header ~payload_len ~pseudo in
    let got = ref None in
    on_each pair.cab_b (fun i ->
        match i with Cab.Rx_packet info -> got := Some info | _ -> ());
    no_handler pair.cab_a;
    let pkt =
      Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len)
    in
    let seg_done = ref 0 in
    let lo = Region.sub user ~off:0 ~len:half
    and hi = Region.sub user ~off:half ~len:half in
    let on_seg_complete () = incr seg_done in
    let segs =
      [
        header_seg ~csum hdr;
        payload_seg ~on_seg_complete (Cab.From_user lo) ~pkt_off:hdr_total;
        payload_seg ~on_seg_complete (Cab.From_user hi)
          ~pkt_off:(hdr_total + half);
      ]
    in
    (* The bus is idle until these posts, which queue on it back to back,
       so the last completion time is the channel's total tenancy. *)
    let bus_done = ref 0 in
    let post segs =
      Cab.sdma_chain pair.cab_a pkt ~segs ~interrupt:false
        ~on_complete:(fun () -> bus_done := Sim.now pair.sim)
    in
    if chained then post segs else List.iter (fun seg -> post [ seg ]) segs;
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
    check_bool "offloaded checksum verifies" true (rx_verifies ~pseudo info);
    let s = Cab.stats pair.cab_a in
    (s.Cab.sdma_bytes, !bus_done, s.Cab.sdma_chains)
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
  check_int "one doorbell per one-segment chain" 3 chains_i

let test_batch_interrupt_handler () =
  (* The NAPI-style handler receives every notification exactly once, in
     order, and the burst counters add up. *)
  let pair = make_pair () in
  let budget = 64 in
  let bursts = ref 0 and seen = ref [] in
  Cab.set_batch_interrupt_handler pair.cab_b (fun burst n ->
      incr bursts;
      check_bool "bursts are never empty" true (n > 0);
      check_bool "bursts respect the budget" true (n <= budget);
      for i = 0 to n - 1 do
        match burst.(i) with
        | Cab.Rx_packet info ->
            seen := info.Cab.rx_total_len :: !seen;
            Cab.free pair.cab_b info.Cab.rx_pkt
        | Cab.Sdma_done -> ()
      done);
  no_handler pair.cab_a;
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
  (* Lose every interrupt so more notifications than one burst holds pile
     up, then poll: the backlog drains in budget-sized bursts that keep
     arrival order. *)
  Fault.arm ~seed:1;
  Fault.plan ~site:"cab.lost_intr" (Fault.Every_n 1);
  seen := [];
  bursts := 0;
  let sizes = List.init (budget + 5) (fun i -> 256 + (4 * i)) in
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

let test_alignment_enforced () =
  let pair = make_pair () in
  let space = Addr_space.create ~profile ~name:"app" () in
  let misaligned = Addr_space.alloc_at_offset space ~page_offset:2 1024 in
  let pkt = Cab.tx_alloc pair.cab_a ~len:4096 in
  check_bool "misaligned user source rejected" true
    (try
       Cab.sdma_chain pair.cab_a pkt
         ~segs:[ payload_seg (Cab.From_user misaligned) ~pkt_off:0 ]
         ~interrupt:false ~on_complete:ignore;
       false
     with Invalid_argument _ -> true);
  check_bool "odd packet offset rejected" true
    (try
       Cab.sdma_chain pair.cab_a pkt
         ~segs:[ payload_seg (kernel_src (Bytes.create 64)) ~pkt_off:2 ]
         ~interrupt:false ~on_complete:ignore;
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
  no_handler cab;
  Cab.deliver cab (Bytes.create 8192);
  Cab.deliver cab (Bytes.create 8192);
  Sim.run sim;
  let s = Cab.stats cab in
  check_int "one accepted" 1 s.Cab.rx_packets;
  check_int "one dropped" 1 s.Cab.rx_dropped

let test_dma_not_cpu_time () =
  (* The whole transfer must cost zero host CPU: DMA runs on the adaptor. *)
  let pair = make_pair () in
  let cpu =
    Cpu.create ~sim:pair.sim ~name:"host" ~shard_cell:(ref 0) ~shard:0
  in
  let _ = cpu in
  let _, _, got = send_one pair in
  check_bool "received" true (got <> None);
  check_int "no host CPU consumed by DMA" 0 (Cpu.busy cpu);
  check_bool "the adaptor's DMA moved the bytes instead" true
    ((Cab.stats pair.cab_a).Cab.sdma_bytes > 0)

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
      (* Each reception's verdict, read before the packet is freed. *)
      let received = ref [] in
      on_each pair.cab_b (fun i ->
          match i with
          | Cab.Rx_packet info ->
              received := rx_verifies ~pseudo info :: !received;
              Cab.free pair.cab_b info.Cab.rx_pkt
          | Cab.Sdma_done -> ());
      no_handler pair.cab_a;
      let pkt =
        Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len)
      in
      Cab.sdma_chain pair.cab_a pkt
        ~segs:
          [
            header_seg ~csum hdr;
            payload_seg (kernel_src payload) ~pkt_off:hdr_total;
          ]
        ~interrupt:false ~on_complete:ignore;
      Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:true;
      Sim.run pair.sim;
      (* A few header rewrites (retransmissions with fresh seeds). *)
      for _ = 1 to rewrites do
        let hdr2 = Bytes.copy hdr in
        Cab.sdma_chain pair.cab_a pkt ~segs:[ header_seg ~csum hdr2 ]
          ~interrupt:false ~on_complete:ignore;
        Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:true;
        Sim.run pair.sim
      done;
      Cab.free pair.cab_a pkt;
      List.length !received = rewrites + 1 && List.for_all Fun.id !received)

(* Property: the engine sum of any received frame, odd lengths and frames
   no longer than the engine's start included, is the byte-at-a-time
   reference sum over [rx_csum_start, len). *)
let prop_engine_sum_matches_reference =
  let sim, cab, got = rx_rig () in
  QCheck.Test.make ~name:"engine sum equals the reference over the frame"
    ~count:300
    QCheck.(string_of_size Gen.(oneof [ 0 -- (rx_csum_start + 1); 0 -- 3000 ]))
    (fun str ->
      let frame = Bytes.of_string str and len = String.length str in
      got := [];
      Cab.deliver cab frame;
      Sim.run sim;
      match !got with
      | [ info ] ->
          let expected =
            if len > rx_csum_start then
              Inet_csum.reference_of_bytes ~off:rx_csum_start
                ~len:(len - rx_csum_start) (Bytes.of_string str)
            else Inet_csum.zero
          in
          let sum = Cab.rx_engine_sum info in
          Cab.free cab info.Cab.rx_pkt;
          sum = expected
      | _ -> false)

(* ---------- engine job rings ---------- *)

(* A chain post allocates nothing: the chain waits in a bus job the
   engine preallocated, and one completion function finishes every job.
   10,000 posts of a test-owned header+payload chain, run to completion,
   average under one word each. *)
let test_tx_alloc_budget () =
  let n = 10_000 and payload_len = 1024 in
  let pair = make_pair () in
  let payload = Bytes.make payload_len 'p' in
  let pkt = Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len) in
  let segs =
    [
      header_seg (Bytes.make hdr_total 'h');
      payload_seg (kernel_src payload) ~pkt_off:hdr_total;
    ]
  in
  let completed = ref 0 in
  let on_complete () = incr completed in
  let w =
    Alloc_budget.measure n
      ~submit:(fun _ ->
        Cab.sdma_chain pair.cab_a pkt ~segs ~interrupt:false ~on_complete)
      ~drain:(fun () -> Sim.run pair.sim)
  in
  check_int "every chain completed" (2 * n) !completed;
  check_int "no post left pending" 0 pkt.Netmem.sdma_pending;
  check_bool "payload landed" true
    (Bytes.sub pkt.Netmem.buf hdr_total payload_len = payload);
  check_bool
    (Printf.sprintf "%.2f words per post + %.2f per completion" w.submit
       w.drain)
    true
    (w.submit +. w.drain < 1.)

(* A received frame, from [Cab.deliver] through the interrupt burst to a
   handler that frees it, allocates its packet record and its rx event
   and nothing else: the auto-DMA engine's queued jobs are records it
   preallocated, one completion function raises every event, the channel
   is read in place, and pending events wait in a ring until the burst
   hands them over in a reused array.  A round stays within one buffer-pool size class, so
   every frame and packet buffer is recycled; per frame, the words are
   compared to the word, since the run loop's few words per [Sim.run]
   call spread over the round. *)
let test_rx_alloc_budget () =
  let frames = 48 and len = 1024 in
  let sim = Sim.create () in
  let cab =
    Cab.create ~sim ~profile ~name:"rx-budget" ~netmem_pages:(2 * frames)
      ~hippi_addr:2
      ~transmit:(fun _ ~dst:_ ~channel:_ -> ())
      ()
  in
  let got = ref 0 and pkt_words = ref 0 and ev_words = ref 0 in
  on_each cab (function
    | Cab.Rx_packet info as ev ->
        incr got;
        pkt_words := Obj.size (Obj.repr info.Cab.rx_pkt) + 1;
        ev_words := Obj.size (Obj.repr ev) + 1 + Obj.size (Obj.repr info) + 1;
        Cab.free cab info.Cab.rx_pkt
    | Cab.Sdma_done -> ());
  let w =
    Alloc_budget.measure frames
      ~submit:(fun _ -> Cab.deliver cab (Bufpool.get Bufpool.shared len))
      ~drain:(fun () -> Sim.run sim)
  in
  check_int "every frame reached the handler" (2 * frames) !got;
  check_int "every packet freed" 0 (Netmem.in_use (Cab.netmem cab));
  let budget = float_of_int (!pkt_words + !ev_words) in
  check_bool
    (Printf.sprintf
       "%.2f words per delivery + %.2f in the burst (budget %.0f: packet \
        record + rx event)"
       w.submit w.drain budget)
    true
    (Float.round (w.submit +. w.drain) <= budget)

(* One chain stalls in the middle of back-to-back chains on different
   packets.  A stalled post queues no bus job, so every other chain still
   completes with its own packet, in post order; the watchdog's recovery
   (reclaim with [clear_stall], post again) completes the stalled one,
   and every packet goes to the media exactly once. *)
let test_stalled_chain_keeps_ring_aligned () =
  let pair = make_pair () in
  let n = 6 and stalled = 2 and payload_len = 256 in
  let payload i = Bytes.make payload_len (Char.chr (Char.code 'a' + i)) in
  let on_media = ref [] in
  on_each pair.cab_b (function
    | Cab.Rx_packet info ->
        on_media := Bytes.get info.Cab.rx_head hdr_total :: !on_media;
        Cab.free pair.cab_b info.Cab.rx_pkt
    | Cab.Sdma_done -> ());
  no_handler pair.cab_a;
  let completed = ref [] in
  let post i pkt =
    Cab.sdma_chain pair.cab_a pkt
      ~segs:
        [
          header_seg (Bytes.make hdr_total 'h');
          payload_seg (kernel_src (payload i)) ~pkt_off:hdr_total;
        ]
      ~interrupt:false
      ~on_complete:(fun () ->
        check_bool
          (Printf.sprintf "chain %d committed into its own packet" i)
          true
          (Bytes.sub pkt.Netmem.buf hdr_total payload_len = payload i);
        completed := i :: !completed)
  in
  Fault.arm ~seed:1;
  (* Consults are 1-based: chain [stalled] is the (stalled+1)-th post. *)
  Fault.plan ~site:"cab.sdma_stall" (Fault.Once_at (stalled + 1));
  let pkts =
    List.init n (fun i ->
        let pkt = Cab.tx_alloc pair.cab_a ~len:(hdr_total + payload_len) in
        post i pkt;
        Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:false;
        pkt)
  in
  Sim.run pair.sim;
  Fault.disarm ();
  let stuck = List.nth pkts stalled in
  Alcotest.(check (list int))
    "the other chains complete in post order" [ 0; 1; 3; 4; 5 ]
    (List.rev !completed);
  check_int "the stalled post shows in the status register" 1
    (Cab.stalled_posts pair.cab_a stuck);
  Cab.clear_stall pair.cab_a stuck;
  post stalled stuck;
  Sim.run pair.sim;
  Alcotest.(check (list int))
    "the repost completes the stalled chain" [ 0; 1; 3; 4; 5; 2 ]
    (List.rev !completed);
  Alcotest.(check (list char))
    "every packet on the media exactly once"
    (List.init n (fun i -> Char.chr (Char.code 'a' + i)))
    (List.sort compare !on_media);
  check_int "media transfers" n (Cab.stats pair.cab_a).Cab.mdma_packets

(* More copy-outs than the engine has descriptor slots: the excess park
   and start as slots free, and every copy-out completes in post order
   into its own destination. *)
let test_copyouts_beyond_pipe_depth () =
  let sim = Sim.create () in
  let cab =
    Cab.create ~sim ~profile ~name:"cab" ~netmem_pages:16 ~hippi_addr:2
      ~transmit:(fun _ ~dst:_ ~channel:_ -> ())
      ()
  in
  let frame = Bytes.init 8192 (fun i -> Char.chr (i land 0xff)) in
  let got = ref None in
  on_each cab (function
    | Cab.Rx_packet info -> got := Some info
    | Cab.Sdma_done -> ());
  Cab.deliver cab (Bytes.copy frame);
  Sim.run sim;
  let info = Option.get !got in
  let depth = (Cab.rx_pipe_stats cab).Cab.rx_pipe_depth in
  let n = depth + 3 and chunk = 512 in
  let dsts = Array.init n (fun _ -> Bytes.make chunk '\000') in
  let order = ref [] in
  for i = 0 to n - 1 do
    Cab.sdma_copy_out cab info.Cab.rx_pkt ~off:(i * chunk) ~len:chunk
      ~dst:(Netif.To_kernel (dsts.(i), 0))
      ~interrupt:false
      ~on_complete:(fun () -> order := i :: !order)
  done;
  Sim.run sim;
  Alcotest.(check (list int))
    "copy-outs complete in post order" (List.init n Fun.id) (List.rev !order);
  Array.iteri
    (fun i d ->
      check_bool
        (Printf.sprintf "copy-out %d landed in its own destination" i)
        true
        (Bytes.equal d (Bytes.sub frame (i * chunk) chunk)))
    dsts;
  check_int "the excess parked" 3 (Cab.rx_pipe_stats cab).Cab.rx_pipe_stalls;
  Cab.free cab info.Cab.rx_pkt

(* Liveness is a flag on the packet: a second free still raises and is
   counted, and the live count returns to its baseline. *)
let test_netmem_double_free_counted () =
  let nm = Netmem.create ~pages:8 in
  let base = Netmem.in_use nm in
  let frees = Obs.value ~section:"netmem" ~name:"double_frees" in
  let pkt = Netmem.alloc nm ~len:100 ~state:Netmem.Ready in
  check_int "one more live packet" (base + 1) (Netmem.in_use nm);
  Netmem.free nm pkt;
  check_bool "second free raises" true
    (try
       Netmem.free nm pkt;
       false
     with Netmem.Double_free _ -> true);
  Alcotest.(check (float 0.)) "double free counted" (frees +. 1.)
    (Obs.value ~section:"netmem" ~name:"double_frees");
  check_int "live count back to baseline" base (Netmem.in_use nm);
  check_int "pages back" 8 (Netmem.free_pages nm)

(* A network-memory packet is accounted in pages but backed by a buffer
   of exactly its length: a 100-byte packet counts one page and holds 100
   bytes, the next 100-byte packet is a Bufpool hit, and a payload
   committed past the packet's length is refused instead of landing in
   the slack of a 4 KByte page buffer. *)
let test_netmem_sized_buffers () =
  let nm = Netmem.create ~pages:8 in
  let p1 = Netmem.alloc nm ~len:100 ~state:Netmem.Ready in
  check_int "one page counted" 7 (Netmem.free_pages nm);
  check_int "buffer of the packet's length" 100 (Bytes.length p1.Netmem.buf);
  Netmem.free nm p1;
  let hits = Bufpool.hit_count Bufpool.shared in
  let p2 = Netmem.alloc nm ~len:100 ~state:Netmem.Ready in
  check_int "same length is a pool hit" (hits + 1)
    (Bufpool.hit_count Bufpool.shared);
  check_bool "the freed buffer is reused" true (p2.Netmem.buf == p1.Netmem.buf);
  check_int "still one page" 7 (Netmem.free_pages nm);
  Netmem.free nm p2;
  let pair = make_pair () in
  let pkt = Cab.tx_alloc pair.cab_a ~len:100 in
  check_bool "payload past the packet raises" true
    (try
       Cab.sdma_chain pair.cab_a pkt
         ~segs:[ payload_seg (kernel_src (Bytes.create 104)) ~pkt_off:0 ]
         ~interrupt:false ~on_complete:ignore;
       false
     with Invalid_argument _ -> true)

let pool_requests () =
  Bufpool.hit_count Bufpool.shared + Bufpool.miss_count Bufpool.shared

(* The arriving frame becomes the packet's network memory: delivery draws
   no buffer from the pool and copies no byte, and freeing the packet
   files the frame for the next packet of its length.  A frame that finds
   network memory exhausted goes back to the pool at once. *)
let test_delivery_copies_nothing () =
  let sim, cab, got = rx_rig ~netmem_pages:2 () in
  let len = 4100 in
  let frame = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
  let requests = pool_requests () in
  Cab.deliver cab frame;
  Sim.run sim;
  check_int "no pool request on delivery" requests (pool_requests ());
  let info =
    match !got with
    | [ info ] -> info
    | _ -> Alcotest.fail "expected one reception"
  in
  check_bool "the packet's buffer is the frame" true
    (info.Cab.rx_pkt.Netmem.buf == frame);
  check_bool "the auto-DMA head is a window on it" true
    (info.Cab.rx_head == frame);
  check_int "two pages counted" 0 (Netmem.free_pages (Cab.netmem cab));
  (* Memory is full: the next frame is dropped and recycled. *)
  let dropped = Bytes.create 8200 in
  Cab.deliver cab dropped;
  check_int "dropped for lack of memory" 1 (Cab.stats cab).Cab.rx_dropped;
  check_bool "the dropped frame is back in the pool" true
    (Bufpool.get Bufpool.shared 8200 == dropped);
  Cab.free cab info.Cab.rx_pkt;
  check_bool "the freed packet files its frame" true
    (Bufpool.get Bufpool.shared len == frame)

(* The engine sum is read from the packet's network memory, so reading it
   once the packet is freed is refused: the buffer may already hold
   another packet. *)
let test_engine_sum_of_freed_packet () =
  let sim, cab, got = rx_rig () in
  Cab.deliver cab (Bytes.make 1000 'x');
  Sim.run sim;
  let info = List.hd !got in
  let sum = Cab.rx_engine_sum info in
  check_bool "read while live" true
    (sum = Inet_csum.of_bytes ~off:rx_csum_start (Bytes.make 1000 'x'));
  Cab.free cab info.Cab.rx_pkt;
  check_bool "read after free raises" true
    (try
       ignore (Cab.rx_engine_sum info : Inet_csum.sum);
       false
     with Invalid_argument _ -> true)

(* A waiting media request lives in the packet, one per packet: a second
   request on a packet that is already queued still raises. *)
let test_second_media_request_raises () =
  let pair = make_pair () in
  on_each pair.cab_b (function
    | Cab.Rx_packet info -> Cab.free pair.cab_b info.Cab.rx_pkt
    | Cab.Sdma_done -> ());
  no_handler pair.cab_a;
  let pkt = Cab.tx_alloc pair.cab_a ~len:(hdr_total + 256) in
  Cab.sdma_chain pair.cab_a pkt
    ~segs:
      [
        header_seg (Bytes.make hdr_total 'h');
        payload_seg (kernel_src (Bytes.make 256 'p')) ~pkt_off:hdr_total;
      ]
    ~interrupt:false ~on_complete:ignore;
  Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:false;
  check_bool "second request raises" true
    (try
       Cab.mdma_send pair.cab_a pkt ~dst:2 ~channel:0 ~keep:false;
       false
     with Invalid_argument _ -> true);
  Sim.run pair.sim;
  check_int "one media transfer" 1 (Cab.stats pair.cab_a).Cab.mdma_packets

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
        ] );
      ( "restrictions",
        [
          Alcotest.test_case "alignment" `Quick test_alignment_enforced;
          Alcotest.test_case "netmem exhaustion" `Quick
            test_netmem_exhaustion_drops;
          Alcotest.test_case "DMA is not CPU time" `Quick test_dma_not_cpu_time;
        ] );
      ( "job rings",
        [
          Alcotest.test_case "tx allocation budget" `Quick test_tx_alloc_budget;
          Alcotest.test_case "rx allocation budget" `Quick test_rx_alloc_budget;
          Alcotest.test_case "stalled chain keeps the ring aligned" `Quick
            test_stalled_chain_keeps_ring_aligned;
          Alcotest.test_case "copy-outs beyond the pipe depth" `Quick
            test_copyouts_beyond_pipe_depth;
          Alcotest.test_case "double free counted" `Quick
            test_netmem_double_free_counted;
          Alcotest.test_case "buffers sized to the packet" `Quick
            test_netmem_sized_buffers;
          Alcotest.test_case "delivery copies nothing" `Quick
            test_delivery_copies_nothing;
          Alcotest.test_case "engine sum of a freed packet raises" `Quick
            test_engine_sum_of_freed_packet;
          Alcotest.test_case "second media request raises" `Quick
            test_second_media_request_raises;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_offload_any_program;
          QCheck_alcotest.to_alcotest prop_engine_sum_matches_reference;
        ] );
    ]
