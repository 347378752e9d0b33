type endpoint = { addr : Inaddr.t; port : int }

type stats = {
  mutable dgrams_sent : int;
  mutable dgrams_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable csum_offloaded_tx : int;
  mutable csum_host_tx : int;
  mutable csum_hw_verified_rx : int;
  mutable csum_host_verified_rx : int;
  mutable csum_failures_rx : int;
  mutable dropped_no_port : int;
  mutable dropped_too_big : int;
}

(* Steady-state flow memo: a datagram stream repeats the same
   (src, dst, ports) endpoint pair, so the preencoded header template
   and the len-0 pseudo-header seed are cached and revalidated by key —
   per-datagram work is two 16-bit patches and one [add_u16]. *)
type flow = {
  f_src : Inaddr.t;
  f_dst : Inaddr.t;
  f_sport : int;
  f_dport : int;
  f_tpl : Bytes.t;  (* ports preencoded; length/csum patched per dgram *)
  f_base : Inet_csum.sum;  (* pseudo-header sum with len = 0 *)
}

type t = {
  ip : Ipv4.t;
  hst : Host.t;
  mutable ports : (int * (src:endpoint -> Mbuf.t -> unit)) list;
  s : stats;
  mutable flow : flow option;
}

let new_stats () =
  {
    dgrams_sent = 0;
    dgrams_rcvd = 0;
    bytes_sent = 0;
    bytes_rcvd = 0;
    csum_offloaded_tx = 0;
    csum_host_tx = 0;
    csum_hw_verified_rx = 0;
    csum_host_verified_rx = 0;
    csum_failures_rx = 0;
    dropped_no_port = 0;
    dropped_too_big = 0;
  }

let stats t = t.s

let verify t ~src ~dst dgram =
  let len = Mbuf.pkt_len dgram in
  let pseudo =
    Inet_csum.pseudo_header ~src ~dst ~proto:Ipv4_header.proto_udp ~len
  in
  let field_raw =
    match Mbuf.view dgram ~off:Udp_header.csum_field_offset ~len:2 with
    | Some (b, pos) -> Bytes.get_uint16_be b pos
    | None ->
        let b = Bytes.create Udp_header.size in
        Mbuf.copy_into dgram ~off:0 ~len:Udp_header.size b ~dst_off:0;
        Bytes.get_uint16_be b Udp_header.csum_field_offset
  in
  if field_raw = 0 then (true, 0) (* sender disabled checksumming *)
  else
    match dgram.Mbuf.pkthdr with
    | Some { Mbuf.rx_csum = Some rx; _ } ->
        let skipped_len = max 0 rx.Csum_offload.rx_start in
        let skipped =
          if skipped_len = 0 then Inet_csum.zero
          else Mbuf.checksum dgram ~off:0 ~len:(min skipped_len len)
        in
        let ok = Csum_offload.rx_verify rx ~skipped ~pseudo in
        if ok then t.s.csum_hw_verified_rx <- t.s.csum_hw_verified_rx + 1
        else t.s.csum_failures_rx <- t.s.csum_failures_rx + 1;
        (ok, 0)
    | Some _ | None ->
        let sum = Mbuf.checksum dgram ~off:0 ~len in
        let ok = Inet_csum.is_valid (Inet_csum.add pseudo sum) in
        let cost =
          Memcost.checksum_read t.hst.Host.profile ~locality:Memcost.Cold len
        in
        if ok then t.s.csum_host_verified_rx <- t.s.csum_host_verified_rx + 1
        else t.s.csum_failures_rx <- t.s.csum_failures_rx + 1;
        (ok, cost)

let input t ~src ~dst dgram =
  let dgram = Mbuf.pullup dgram Udp_header.size in
  (* After pullup the header is contiguous: decode it in place. *)
  let hbytes, hoff =
    match Mbuf.view dgram ~off:0 ~len:Udp_header.size with
    | Some (b, pos) -> (b, pos)
    | None ->
        let b = Bytes.create Udp_header.size in
        Mbuf.copy_into dgram ~off:0 ~len:Udp_header.size b ~dst_off:0;
        (b, 0)
  in
  match Udp_header.decode hbytes ~off:hoff ~len:Udp_header.size with
  | Error _ -> Mbuf.free dgram
  | Ok (hdr, _) -> (
      match List.assoc_opt hdr.Udp_header.dst_port t.ports with
      | None ->
          t.s.dropped_no_port <- t.s.dropped_no_port + 1;
          Mbuf.free dgram
      | Some handler ->
          let ok, csum_cost = verify t ~src ~dst dgram in
          if not ok then Mbuf.free dgram
          else begin
            let cost =
              Memcost.per_packet t.hst.Host.profile + csum_cost
            in
            Host.in_intr t.hst ~site:Cpu.Header
              ~csum:csum_cost cost (fun () ->
                Mbuf.adj_head dgram Udp_header.size;
                t.s.dgrams_rcvd <- t.s.dgrams_rcvd + 1;
                t.s.bytes_rcvd <- t.s.bytes_rcvd + Mbuf.chain_len dgram;
                handler
                  ~src:{ addr = src; port = hdr.Udp_header.src_port }
                  dgram)
          end)

let create ~ip =
  let t =
    { ip; hst = Ipv4.host ip; ports = []; s = new_stats (); flow = None }
  in
  Ipv4.register_protocol ip ~proto:Ipv4_header.proto_udp
    (fun ~src ~dst dgram -> input t ~src ~dst dgram);
  t

let bind t ~port handler =
  if List.mem_assoc port t.ports then
    invalid_arg (Printf.sprintf "Udp.bind: port %d in use" port);
  t.ports <- (port, handler) :: t.ports

let unbind t ~port = t.ports <- List.remove_assoc port t.ports

let sendto t ~proc ?(checksum = true) ~src_port ~dst payload =
  match Ipv4.route_for t.ip ~dst:dst.addr with
  | None ->
      Mbuf.free payload;
      Error "no route to host"
  | Some (iface, _) ->
      let payload_len = Mbuf.chain_len payload in
      let dgram_len = Udp_header.size + payload_len in
      if dgram_len > 65507 then begin
        Mbuf.free payload;
        t.s.dropped_too_big <- t.s.dropped_too_big + 1;
        Error "datagram exceeds the UDP maximum"
      end
      else begin
        (* A datagram that will fragment cannot use the checksum engine:
           the transport checksum spans fragments (Ipv4.output note). *)
        let will_fragment =
          dgram_len + Ipv4_header.size > iface.Netif.mtu
        in
        let src = iface.Netif.addr in
        (* Hit or refill the flow memo for this endpoint pair. *)
        let fl =
          match t.flow with
          | Some f
            when Inaddr.equal f.f_src src
                 && Inaddr.equal f.f_dst dst.addr
                 && f.f_sport = src_port && f.f_dport = dst.port ->
              f
          | Some _ | None ->
              let tpl = Bytes.make Udp_header.size '\000' in
              Bytes.set_uint16_be tpl 0 src_port;
              Bytes.set_uint16_be tpl 2 dst.port;
              let f =
                {
                  f_src = src;
                  f_dst = dst.addr;
                  f_sport = src_port;
                  f_dport = dst.port;
                  f_tpl = tpl;
                  f_base =
                    Inet_csum.pseudo_header ~src ~dst:dst.addr
                      ~proto:Ipv4_header.proto_udp ~len:0;
                }
              in
              t.flow <- Some f;
              f
        in
        let pseudo = Inet_csum.add_u16 fl.f_base dgram_len in
        let offload =
          checksum && iface.Netif.single_copy && not will_fragment
        in
        let hbytes = fl.f_tpl in
        Bytes.set_uint16_be hbytes 4 dgram_len;
        let record, csum_cost =
          if not checksum then begin
            Bytes.set_uint16_be hbytes Udp_header.csum_field_offset 0;
            (None, 0)
          end
          else if offload then begin
            t.s.csum_offloaded_tx <- t.s.csum_offloaded_tx + 1;
            Bytes.set_uint16_be hbytes Udp_header.csum_field_offset
              (Inet_csum.fold pseudo land 0xffff);
            ( Some
                (Csum_offload.make_tx
                   ~csum_offset:Udp_header.csum_field_offset ~skip_bytes:0
                   ~seed:pseudo),
              0 )
          end
          else begin
            t.s.csum_host_tx <- t.s.csum_host_tx + 1;
            Bytes.set_uint16_be hbytes Udp_header.csum_field_offset 0;
            let hdr_sum = Inet_csum.of_bytes hbytes in
            let body = Mbuf.checksum payload ~off:0 ~len:payload_len in
            let field =
              Inet_csum.finish
                (Inet_csum.add pseudo
                   (Inet_csum.concat ~first_len:Udp_header.size hdr_sum body))
            in
            (* RFC 768: a computed zero checksum is sent as all-ones. *)
            let field = if field = 0 then 0xffff else field in
            Bytes.set_uint16_be hbytes Udp_header.csum_field_offset field;
            ( None,
              Memcost.checksum_read t.hst.Host.profile ~locality:Memcost.Cold
                payload_len )
          end
        in
        let dgram = Mbuf.prepend payload Udp_header.size in
        Mbuf.copy_from dgram ~off:0 ~len:Udp_header.size hbytes ~src_off:0;
        (match dgram.Mbuf.pkthdr with
        | Some ph -> ph.Mbuf.tx_csum <- record
        | None -> ());
        t.s.dgrams_sent <- t.s.dgrams_sent + 1;
        t.s.bytes_sent <- t.s.bytes_sent + payload_len;
        let cost = Memcost.per_packet t.hst.Host.profile + csum_cost in
        Host.in_proc t.hst ~proc ~site:Cpu.Header
          ~csum:csum_cost cost (fun () ->
            match
              Ipv4.output t.ip ~proto:Ipv4_header.proto_udp ~src
                ~dst:dst.addr dgram
            with
            | Ok _ -> ()
            | Error _ -> ());
        Ok ()
      end
