type t = {
  host : Host.t;
  ip : Ipv4.t;
  tcp : Tcp.t;
  udp : Udp.t;
  mode : Stack_mode.t;
  mutable spaces : Addr_space.t list;
}

let create ~sim ~profile ~name ~mode ?(tcp_config = fun c -> c) ?(shards = 1)
    () =
  let host = Host.create ~shards ~sim ~profile ~name () in
  let ip = Ipv4.create ~host in
  let tcp = Tcp.create ~ip ~config:(tcp_config Tcp.default_config) in
  let udp = Udp.create ~ip in
  { host; ip; tcp; udp; mode; spaces = [] }

let subnet_of addr =
  (* /24 containing the address. *)
  Int32.logand addr 0xffffff00l

(* RSS steering classifier: hash the TCP 4-tuple out of the auto-DMA'd
   frame head.  Layout is fixed by the stack's encoders: 40-byte HIPPI
   framing, then an IPv4 header with ihl = 5 — proto at byte 49, source
   address at 52, TCP ports at 60/62.  The demux key on the receive side
   is (lport = dst_port, raddr = src, rport = src_port), hashed exactly
   as [Tcp.input] will hash it, so the interrupt lands on the shard that
   owns the pcb by construction. *)
let classify_rx (ev : Cab.intr) =
  match ev with
  | Cab.Sdma_done -> None
  | Cab.Rx_packet info ->
      let b = info.Cab.rx_head and n = info.Cab.rx_head_len in
      if
        n >= 64
        && Bytes.length b >= 64
        && Bytes.get_uint8 b 49 = Ipv4_header.proto_tcp
        && Bytes.get_uint16_be b 46 land 0x3fff = 0 (* not a fragment *)
      then
        let raddr = Bytes.get_int32_be b 52 in
        let rport = Bytes.get_uint16_be b 60 in
        let lport = Bytes.get_uint16_be b 62 in
        Some (Flow_hash.hash ~raddr ~lport ~rport)
      else None

let attach_cab t ~cab ~addr ?mtu ?watchdog () =
  let drv =
    Cab_driver.attach ~host:t.host ~ip:t.ip ~cab ~addr ?mtu ~mode:t.mode
      ?watchdog ()
  in
  if Host.shard_count t.host > 1 then Cab_driver.set_steer drv classify_rx;
  Routing.add_route (Ipv4.routing t.ip) ~prefix:(subnet_of addr) ~len:24
    (Cab_driver.iface drv);
  drv

let attach_ether t ~dev ~addr =
  let drv = Ether_driver.attach ~host:t.host ~ip:t.ip ~dev ~addr in
  Routing.add_route (Ipv4.routing t.ip) ~prefix:(subnet_of addr) ~len:24
    (Ether_driver.iface drv);
  drv

let attach_loopback t = Loopback.attach ~host:t.host ~ip:t.ip

let add_route t ~prefix ~len ?gateway ifc =
  Routing.add_route (Ipv4.routing t.ip) ~prefix ~len ?gateway ifc

let set_forwarding t v = Ipv4.set_forwarding t.ip v

let make_space t ~name =
  let space =
    Addr_space.create ~profile:t.host.Host.profile
      ~name:(t.host.Host.name ^ "." ^ name) ()
  in
  t.spaces <- space :: t.spaces;
  space
