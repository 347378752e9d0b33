type stats = {
  mutable tx_frames : int;
  mutable rx_frames : int;
  mutable tx_converted : int;
  mutable tx_drops : int;
}

type t = {
  host : Host.t;
  dev : Etherdev.t;
  mutable ifc : Netif.t option;
  s : stats;
}

let iface t = Option.get t.ifc
let stats t = t.s

let output t ifc pkt ~next_hop =
  match Netif.link_addr ifc next_hop with
  | None ->
      t.s.tx_drops <- t.s.tx_drops + 1;
      Mbuf.free pkt
  | Some dst_mac ->
      let needs_conversion =
        List.exists
          (fun k -> k = Mbuf.K_uio || k = Mbuf.K_wcab)
          (Mbuf.chain_kinds pkt)
      in
      if needs_conversion then
        t.s.tx_converted <- t.s.tx_converted + 1;
      Interop.flatten_for_legacy ~host:t.host pkt
        (fun payload ->
          let frame = Bytes.create (Ether_frame.size + Bytes.length payload) in
          Ether_frame.encode
            (Ether_frame.make ~src:(Etherdev.mac t.dev) ~dst:dst_mac)
            frame ~off:0;
          Bytes.blit payload 0 frame Ether_frame.size (Bytes.length payload);
          t.s.tx_frames <- t.s.tx_frames + 1;
          Etherdev.transmit t.dev frame)

let input t frame =
  (* Interrupt entry plus the classic copy of the frame into mbufs. *)
  let n = Bytes.length frame - Ether_frame.size in
  if n > 0 then begin
    let cost =
      Memcost.interrupt t.host.Host.profile
      + Memcost.copy t.host.Host.profile ~locality:Memcost.Cold n
    in
    Host.in_intr t.host cost (fun () ->
        t.s.rx_frames <- t.s.rx_frames + 1;
        let data = Bytes.sub frame Ether_frame.size n in
        let chain = Mbuf.of_bytes ~pkthdr:true data in
        match t.ifc with
        | Some ifc -> Netif.deliver ifc chain
        | None -> Mbuf.free chain)
  end

let attach ~host ~ip ~dev ~addr =
  let t =
    {
      host;
      dev;
      ifc = None;
      s = { tx_frames = 0; rx_frames = 0; tx_converted = 0; tx_drops = 0 };
    }
  in
  let ifc =
    Netif.make ~name:(Printf.sprintf "en%x" (Etherdev.mac dev land 0xff))
      ~addr ~mtu:1500
      ~output:(fun ifc pkt ~next_hop -> output t ifc pkt ~next_hop)
      ()
  in
  t.ifc <- Some ifc;
  Etherdev.set_rx dev (fun frame -> input t frame);
  Netif.attach_input ifc (fun m -> Ipv4.input ip ifc m);
  Host.add_iface host ifc;
  t

let add_neighbor t ipaddr ~mac = Netif.add_neighbor (iface t) ipaddr mac
