(* Ledger charge for the flatten: like the CPU charge below, it counts
   only descriptor-held bytes as a host copy. *)
let charge_flatten op n =
  if n > 0 then Obs_ledger.touch Obs_ledger.Tcp_flatten op n

let flatten_for_legacy ~host m k =
  let total = Mbuf.chain_len m in
  (* Cost: only descriptor-held bytes need a real (delayed) copy; regular
     mbuf bytes were already copied when the socket layer buffered them. *)
  let uio_bytes =
    Mbuf.fold
      (fun acc (mb : Mbuf.t) ->
        match Mbuf.kind mb with
        | Mbuf.K_uio -> acc + mb.Mbuf.len
        | Mbuf.K_wcab | Mbuf.K_internal | Mbuf.K_cluster -> acc)
      0 m
  in
  let cost =
    if uio_bytes > 0 then
      Memcost.copy host.Host.profile ~locality:Memcost.Cold uio_bytes
    else Simtime.zero
  in
  let finish () =
    let buf = Bytes.create total in
    let pending_csum =
      match m.Mbuf.pkthdr with Some ph -> ph.Mbuf.tx_csum | None -> None
    in
    (match pending_csum with
    | Some rec_
      when Ipv4_header.size + rec_.Csum_offload.skip_bytes <= total
           && Ipv4_header.size + rec_.Csum_offload.csum_offset + 2 <= total ->
        (* The packet was built for an offloading device — its checksum
           field holds only the pseudo-header seed — but is leaving
           through a legacy interface whose hardware will not finish the
           job.  Materialize the checksum in software, fused with the
           flatten copy so the data is still touched only once.  The
           offload record is transport-relative; the chain here starts at
           the IP header. *)
        let skip = Ipv4_header.size + rec_.Csum_offload.skip_bytes in
        Mbuf.copy_into m ~off:0 ~len:skip buf ~dst_off:0;
        let s =
          Mbuf.copy_into_csum m ~off:skip ~len:(total - skip) buf
            ~dst_off:skip
        in
        (* The seed sits inside the summed range, so the field value is
           the plain complement of the sum — same arithmetic as the
           adaptor's [Csum_offload.tx_finalize]. *)
        let fld = Ipv4_header.size + rec_.Csum_offload.csum_offset in
        Bytes.set_uint16_be buf fld (Inet_csum.finish s);
        (* The host copies and sums the descriptor bytes in one pass and
           reads the rest of the summed range for the checksum only. *)
        charge_flatten Obs_ledger.Copy_sum uio_bytes;
        charge_flatten Obs_ledger.Sum (total - skip - uio_bytes);
        (match m.Mbuf.pkthdr with
        | Some ph -> ph.Mbuf.tx_csum <- None
        | None -> ())
    | Some _ | None ->
        Mbuf.copy_into m ~off:0 ~len:total buf ~dst_off:0;
        charge_flatten Obs_ledger.Copy uio_bytes);
    (* The copy satisfies copy semantics: credit the UIO counters. *)
    Mbuf.iter
      (fun (mb : Mbuf.t) ->
        match (Mbuf.kind mb, mb.Mbuf.notify) with
        | Mbuf.K_uio, Some n ->
            Mbuf.notify_complete_n n mb.Mbuf.len
        | _ -> ())
      m;
    Mbuf.free m;
    k buf
  in
  if cost > 0 then Host.in_proc host ~proc:"kernel" cost finish
  else finish ()

let wcab_to_regular ~host ~iface m k =
  let has_wcab = List.mem Mbuf.K_wcab (Mbuf.chain_kinds m) in
  if not has_wcab then k m
  else begin
    match iface.Netif.copy_out with
    | None ->
        (* The owning device must be able to move its own data. *)
        invalid_arg "Interop.wcab_to_regular: device has no copy-out"
    | Some copy_out ->
        let total = Mbuf.chain_len m in
        let buf = Bytes.create total in
        let pending = ref 1 in
        let release () =
          decr pending;
          if !pending = 0 then begin
            let rcvif = Mbuf.rcvif m in
            let rx_csum =
              match m.Mbuf.pkthdr with
              | Some ph -> ph.Mbuf.rx_csum
              | None -> None
            in
            Mbuf.free m;
            let fresh = Mbuf.of_bytes ~pkthdr:true buf in
            (match (fresh.Mbuf.pkthdr, rcvif) with
            | Some _, Some ifname -> Mbuf.set_rcvif fresh ifname
            | _ -> ());
            (match fresh.Mbuf.pkthdr with
            | Some ph -> ph.Mbuf.rx_csum <- rx_csum
            | None -> ());
            k fresh
          end
        in
        let rec walk (mb : Mbuf.t option) off =
          match mb with
          | None -> release ()
          | Some mb ->
              let seg = mb.Mbuf.len in
              (if seg > 0 then
                 match Mbuf.kind mb with
                 | Mbuf.K_wcab ->
                     incr pending;
                     copy_out mb ~off:0 ~len:seg
                       ~dst:(Netif.To_kernel (buf, off))
                       ~on_done:release
                 | Mbuf.K_internal | Mbuf.K_cluster | Mbuf.K_uio ->
                     Mbuf.copy_into mb ~off:0 ~len:seg buf ~dst_off:off);
              walk mb.Mbuf.next (off + seg)
        in
        ignore host;
        walk (Some m) 0
  end
