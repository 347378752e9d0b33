type handler = src:Inaddr.t -> dst:Inaddr.t -> Mbuf.t -> unit

type stats = {
  mutable received : int;
  mutable delivered : int;
  mutable forwarded : int;
  mutable dropped_no_route : int;
  mutable dropped_bad_header : int;
  mutable dropped_no_proto : int;
  mutable dropped_ttl : int;
  mutable sent : int;
  mutable fragments_sent : int;
  mutable fragments_rcvd : int;
  mutable reassembled : int;
}

type t = {
  host : Host.t;
  routing : Routing.t;
  mutable handlers : (int * handler) list;
  mutable ident : int;
  mutable forwarding : bool;
  s : stats;
  mutable error_hook :
    (reason:[ `Ttl | `No_route ] ->
    orig_src:Inaddr.t ->
    orig_head:Bytes.t ->
    unit)
    option;
  frag : Ip_frag.t;
  mutable hdr_memo : hdr_memo option;
  (* Receive-side address memo: a flow's packets repeat their source
     and destination, so [input] hands up the same boxed addresses
     packet after packet instead of boxing two fresh ones. *)
  rx_src : Inaddr.t ref;
  rx_dst : Inaddr.t ref;
}

(* Steady-state flow memo: a connection's packets repeat the same
   (src, dst, proto, ttl), so the header prototype (total_len,
   ident, flags and checksum fields zero) and its checksum base are
   cached — per packet the header cost is two 16-bit patches and an
   incremental [finish (base + len + ident)] instead of a fresh encode
   with a full 20-byte checksum pass. *)
and hdr_memo = {
  p_src : Inaddr.t;
  p_dst : Inaddr.t;
  p_proto : int;
  p_ttl : int;
  p_tpl : Bytes.t;
  p_base : Inet_csum.sum;
}

let create ~host =
  {
    host;
    routing = Routing.create ();
    handlers = [];
    ident = 0;
    forwarding = false;
    s =
      {
        received = 0;
        delivered = 0;
        forwarded = 0;
        dropped_no_route = 0;
        dropped_bad_header = 0;
        dropped_no_proto = 0;
        dropped_ttl = 0;
        sent = 0;
        fragments_sent = 0;
        fragments_rcvd = 0;
        reassembled = 0;
      };
    error_hook = None;
    frag = Ip_frag.create ~host;
    hdr_memo = None;
    rx_src = ref Inaddr.any;
    rx_dst = ref Inaddr.any;
  }

let hdr_template t ~src ~dst ~proto ~ttl =
  match t.hdr_memo with
  | Some m
    when Inaddr.equal m.p_src src && Inaddr.equal m.p_dst dst
         && m.p_proto = proto && m.p_ttl = ttl ->
      m
  | Some _ | None ->
      let tpl = Bytes.make Ipv4_header.size '\000' in
      Bytes.set_uint8 tpl 0 0x45 (* version 4, ihl 5 *);
      (* tos (1), total_len (2), ident (4), flags (6), checksum (10) stay
         zero *)
      Bytes.set_uint8 tpl 8 ttl;
      Bytes.set_uint8 tpl 9 proto;
      Bytes.set_int32_be tpl 12 src;
      Bytes.set_int32_be tpl 16 dst;
      let m =
        {
          p_src = src;
          p_dst = dst;
          p_proto = proto;
          p_ttl = ttl;
          p_tpl = tpl;
          p_base = Inet_csum.of_bytes tpl;
        }
      in
      t.hdr_memo <- Some m;
      m

let host t = t.host
let routing t = t.routing
let set_forwarding t v = t.forwarding <- v

let register_protocol t ~proto h =
  if List.mem_assoc proto t.handlers then
    invalid_arg (Printf.sprintf "Ipv4: protocol %d already registered" proto);
  t.handlers <- (proto, h) :: t.handlers

(* Whether the address at [buf]/[off] is one of ours, compared in place
   so the check boxes nothing. *)
let rec iface_addr_at buf off = function
  | [] -> false
  | (i : Netif.t) :: rest ->
      Bytes.get_int32_be buf off = i.Netif.addr || iface_addr_at buf off rest

let is_local_at t buf off =
  Bytes.get_int32_be buf off = Inaddr.loopback
  || iface_addr_at buf off t.host.Host.ifaces

(* The address at [buf]/[off], boxed only when it differs from the one
   [memo] holds. *)
let memo_addr memo buf off =
  if Bytes.get_int32_be buf off <> !memo then
    memo := Bytes.get_int32_be buf off;
  !memo

let route_for t ~dst = Routing.lookup t.routing dst

let next_ident t =
  t.ident <- (t.ident + 1) land 0xffff;
  t.ident

(* One fragment of a datagram too large for [iface]: a fresh header
   encode (the flow memo covers only unfragmented packets). *)
let output_fragment t iface ~next_hop ~proto ~src ~dst ~ttl ~ident
    ~frag_offset ~more_fragments piece =
  let hdr =
    {
      (Ipv4_header.make ~ident ~ttl ~proto ~src ~dst
         ~total_len:(Ipv4_header.size + Mbuf.pkt_len piece)
         ())
      with
      Ipv4_header.frag_offset;
      more_fragments;
    }
  in
  let pkt = Mbuf.prepend piece Ipv4_header.size in
  let hbytes = Bytes.create Ipv4_header.size in
  Ipv4_header.encode hdr hbytes ~off:0;
  Mbuf.copy_from pkt ~off:0 ~len:Ipv4_header.size hbytes ~src_off:0;
  t.s.sent <- t.s.sent + 1;
  iface.Netif.output iface pkt ~next_hop

let output t ~proto ?src ~dst ?(ttl = 64) seg =
  match Routing.lookup t.routing dst with
  | None ->
      t.s.dropped_no_route <- t.s.dropped_no_route + 1;
      Mbuf.free seg;
      Error "no route to host"
  | Some (iface, next_hop) ->
      let src = match src with Some s -> s | None -> iface.Netif.addr in
      let seg_len = Mbuf.pkt_len seg in
      let total_len = Ipv4_header.size + seg_len in
      if total_len <= iface.Netif.mtu then begin
        (* Carry the transport offload record straight through. *)
        let ident = next_ident t in
        let tx_csum =
          match seg.Mbuf.pkthdr with Some ph -> ph.Mbuf.tx_csum | None -> None
        in
        let on_outboard =
          match seg.Mbuf.pkthdr with
          | Some ph -> ph.Mbuf.on_outboard
          | None -> None
        in
        (* Unfragmented packet: flags field is zero, so the cached
           prototype needs only total_len, ident and the incrementally
           derived header checksum patched in. *)
        let memo = hdr_template t ~src ~dst ~proto ~ttl in
        let hbytes = memo.p_tpl in
        Bytes.set_uint16_be hbytes 2 total_len;
        Bytes.set_uint16_be hbytes 4 ident;
        let csum =
          Inet_csum.finish
            (Inet_csum.add_u16 (Inet_csum.add_u16 memo.p_base total_len)
               ident)
        in
        Bytes.set_uint16_be hbytes 10 csum;
        let pkt = Mbuf.prepend seg Ipv4_header.size in
        Mbuf.copy_from pkt ~off:0 ~len:Ipv4_header.size hbytes ~src_off:0;
        (match pkt.Mbuf.pkthdr with
        | Some ph ->
            ph.Mbuf.tx_csum <- tx_csum;
            ph.Mbuf.on_outboard <- on_outboard
        | None -> ());
        t.s.sent <- t.s.sent + 1;
        iface.Netif.output iface pkt ~next_hop;
        Ok iface
      end
      else begin
        (* Fragment: share-semantics slices of the payload on 8-byte
           boundaries.  Offloaded checksums cannot span fragments. *)
        let per = (iface.Netif.mtu - Ipv4_header.size) / 8 * 8 in
        if per <= 0 then begin
          Mbuf.free seg;
          Error "interface mtu too small to fragment"
        end
        else begin
          let ident = next_ident t in
          let rec go off =
            if off < seg_len then begin
              let len = min per (seg_len - off) in
              let piece = Mbuf.copy_range seg ~off ~len in
              t.s.fragments_sent <- t.s.fragments_sent + 1;
              output_fragment t iface ~next_hop ~proto ~src ~dst ~ttl
                ~ident ~frag_offset:(off / 8)
                ~more_fragments:(off + len < seg_len)
                piece;
              go (off + len)
            end
          in
          go 0;
          Mbuf.free seg;
          Ok iface
        end
      end

(* A plain walk of the handler list: [List.assoc_opt] would box its
   answer on every packet. *)
let rec deliver_local_in t ~src ~dst ~proto pkt = function
  | [] ->
      t.s.dropped_no_proto <- t.s.dropped_no_proto + 1;
      Mbuf.free pkt
  | (p, h) :: rest ->
      if p = proto then begin
        t.s.delivered <- t.s.delivered + 1;
        h ~src ~dst pkt
      end
      else deliver_local_in t ~src ~dst ~proto pkt rest

let deliver_local t ~src ~dst ~proto pkt =
  deliver_local_in t ~src ~dst ~proto pkt t.handlers

let notify_error t reason (hdr : Ipv4_header.t) pkt =
  match t.error_hook with
  | None -> ()
  | Some hook ->
      let n = min (Ipv4_header.size + 8) (Mbuf.pkt_len pkt) in
      let head = Bytes.create n in
      Mbuf.copy_into pkt ~off:0 ~len:n head ~dst_off:0;
      hook ~reason ~orig_src:hdr.Ipv4_header.src ~orig_head:head

let forward t pkt (hdr : Ipv4_header.t) =
  if hdr.Ipv4_header.ttl <= 1 then begin
    t.s.dropped_ttl <- t.s.dropped_ttl + 1;
    notify_error t `Ttl hdr pkt;
    Mbuf.free pkt
  end
  else
    match Routing.lookup t.routing hdr.Ipv4_header.dst with
    | None ->
        t.s.dropped_no_route <- t.s.dropped_no_route + 1;
        notify_error t `No_route hdr pkt;
        Mbuf.free pkt
    | Some (iface, next_hop) ->
        if Mbuf.pkt_len pkt > iface.Netif.mtu then begin
          (* No fragmentation on the forwarding path in this stack. *)
          t.s.dropped_no_route <- t.s.dropped_no_route + 1;
          Mbuf.free pkt
        end
        else begin
          (* Rewrite TTL and header checksum in place. *)
          let hdr = { hdr with Ipv4_header.ttl = hdr.Ipv4_header.ttl - 1 } in
          let hbytes = Bytes.create Ipv4_header.size in
          Ipv4_header.encode hdr hbytes ~off:0;
          Mbuf.copy_from pkt ~off:0 ~len:Ipv4_header.size hbytes ~src_off:0;
          t.s.forwarded <- t.s.forwarded + 1;
          (* Forwarding work is charged here: one per-packet cost. *)
          Host.in_proc t.host ~proc:"kernel.forward" ~site:Cpu.Header
            (Memcost.per_packet t.host.Host.profile) (fun () ->
              iface.Netif.output iface pkt ~next_hop)
        end

(* The header record, for the paths that keep or rewrite it. *)
let decode_checked hbytes hoff =
  match Ipv4_header.decode hbytes ~off:hoff with
  | Ok hdr -> hdr
  | Error e -> invalid_arg e (* [Ipv4_header.check] passed *)

let input t (_iface : Netif.t) pkt =
  t.s.received <- t.s.received + 1;
  let pkt = Mbuf.pullup pkt Ipv4_header.size in
  (* After pullup the header is contiguous: check it in place. *)
  let hbytes, hoff =
    match Mbuf.view pkt ~off:0 ~len:Ipv4_header.size with
    | Some (b, pos) -> (b, pos)
    | None ->
        let b = Bytes.create Ipv4_header.size in
        Mbuf.copy_into pkt ~off:0 ~len:Ipv4_header.size b ~dst_off:0;
        (b, 0)
  in
  match Ipv4_header.check hbytes ~off:hoff with
  | Error _ ->
      t.s.dropped_bad_header <- t.s.dropped_bad_header + 1;
      Mbuf.free pkt
  | Ok () ->
      (* The local-delivery path reads the header fields in place; only
         fragments and forwarded packets build the header record. *)
      let total_len = Bytes.get_uint16_be hbytes (hoff + 2) in
      if Mbuf.pkt_len pkt < total_len then begin
        t.s.dropped_bad_header <- t.s.dropped_bad_header + 1;
        Mbuf.free pkt
      end
      else begin
        (* Trim link-layer padding beyond the IP total length. *)
        let excess = Mbuf.pkt_len pkt - total_len in
        if excess > 0 then Mbuf.adj_tail pkt excess;
        let local = is_local_at t hbytes (hoff + 16) in
        (* More-fragments flag or a non-zero fragment offset. *)
        let fragment = Bytes.get_uint16_be hbytes (hoff + 6) land 0x3fff <> 0 in
        if local && fragment then begin
          (* A fragment for us: reassemble.  The copy into the reassembly
             buffer is host work (classic BSD slow path). *)
          let hdr = decode_checked hbytes hoff in
          Mbuf.adj_head pkt Ipv4_header.size;
          t.s.fragments_rcvd <- t.s.fragments_rcvd + 1;
          let cost =
            Memcost.copy t.host.Host.profile ~locality:Memcost.Cold
              (Mbuf.pkt_len pkt)
          in
          Host.in_intr t.host ~site:Cpu.Copy cost (fun () ->
              match Ip_frag.input t.frag ~hdr pkt with
              | None -> ()
              | Some (hdr, datagram) ->
                  t.s.reassembled <- t.s.reassembled + 1;
                  deliver_local t ~src:hdr.Ipv4_header.src
                    ~dst:hdr.Ipv4_header.dst ~proto:hdr.Ipv4_header.proto
                    datagram)
        end
        else if local then begin
          let src = memo_addr t.rx_src hbytes (hoff + 12)
          and dst = memo_addr t.rx_dst hbytes (hoff + 16)
          and proto = Bytes.get_uint8 hbytes (hoff + 9) in
          Mbuf.adj_head pkt Ipv4_header.size;
          (* Keep the hardware checksum record relative to what remains of
             the packet: the engine start moves up with the stripped
             header (§4.3 receive adjustment). *)
          (match pkt.Mbuf.pkthdr with
          | Some { Mbuf.rx_csum = Some rx; _ } ->
              rx.Csum_offload.rx_start <-
                rx.Csum_offload.rx_start - Ipv4_header.size
          | Some _ | None -> ());
          deliver_local t ~src ~dst ~proto pkt
        end
        else if t.forwarding then forward t pkt (decode_checked hbytes hoff)
        else begin
          t.s.dropped_no_route <- t.s.dropped_no_route + 1;
          Mbuf.free pkt
        end
      end

let set_error_hook t hook = t.error_hook <- Some hook

let stats t = t.s
