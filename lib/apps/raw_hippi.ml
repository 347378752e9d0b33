let run ~tb ~packet_size ~total =
  if packet_size <= Hippi_framing.size then
    invalid_arg "Raw_hippi.run: packet too small";
  let sim = tb.Testbed.sim in
  let cab_a = tb.Testbed.a.Testbed.cab in
  let cab_b = tb.Testbed.b.Testbed.cab in
  let host_a = tb.Testbed.a.Testbed.stack.Netstack.host in
  let npackets = (total + packet_size - 1) / packet_size in
  let payload = packet_size - Hippi_framing.size in
  let received = ref 0 in
  let done_at = ref Simtime.zero in
  (* B: count arrivals and free immediately. *)
  Cab.set_batch_interrupt_handler cab_b (fun burst n ->
      for i = 0 to n - 1 do
        match burst.(i) with
        | Cab.Rx_packet info ->
            incr received;
            Cab.free cab_b info.Cab.rx_pkt;
            if !received = npackets then done_at := Sim.now sim
        | Cab.Sdma_done -> ()
      done);
  Cab.set_batch_interrupt_handler cab_a (fun _ _ -> ());
  (* A: post packets back to back; the next SDMA is posted as soon as the
     previous one is accepted by the adaptor, so SDMA and MDMA pipeline.
     Header and payload are two one-segment chains, each its own
     doorbell. *)
  let header =
    Cab.Seg_header
      {
        len = Hippi_framing.size;
        fill =
          (fun buf ->
            Hippi_framing.encode buf ~off:0 ~src:1 ~dst:2 ~channel:0
              ~payload_len:payload);
        csum = None;
      }
  and body =
    Cab.Seg_payload
      {
        src =
          Cab.From_kernel
            { buf = Bytes.create payload; off = 0; len = payload };
        pkt_off = Hippi_framing.size;
        on_seg_complete = None;
      }
  in
  let t0 = Sim.now sim in
  let rec send n =
    if n < npackets then
      match Cab.tx_alloc cab_a ~len:packet_size with
      | exception Netmem.Exhausted ->
          (* Adaptor busy: retry shortly. *)
          ignore (Sim.after sim (Simtime.us 20.) (fun () -> send n))
      | pkt ->
          Host.in_proc host_a ~proc:"rawhippi"
            (2 * Memcost.dma_post host_a.Host.profile) (fun () ->
              Cab.sdma_chain cab_a pkt ~segs:[ header ] ~interrupt:false
                ~on_complete:ignore;
              Cab.sdma_chain cab_a pkt ~segs:[ body ] ~interrupt:false
                ~on_complete:(fun () -> send (n + 1));
              pkt.Netmem.len <- packet_size;
              Cab.mdma_send cab_a pkt ~dst:2 ~channel:0 ~keep:false)
  in
  send 0;
  Sim.run ~until:(Simtime.s 600.) sim;
  let elapsed =
    if !done_at > t0 then Simtime.sub !done_at t0 else Simtime.sub (Sim.now sim) t0
  in
  Simtime.rate_mbit ~bytes:(!received * payload) elapsed
