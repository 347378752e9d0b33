type driver_stats = {
  mutable tx_packets : int;
  mutable tx_uio_segments : int;
  mutable tx_kernel_segments : int;
  mutable tx_rewrites : int;
  mutable tx_adaptor_copies : int;
  mutable tx_drops : int;
  mutable rx_packets : int;
  mutable rx_wcab_delivered : int;
  mutable rx_copied_kernel : int;
  mutable copyouts : int;
  mutable unaligned_staged : int;
  mutable tx_gather_fallbacks : int;
  mutable tx_gather_bytes : int;
  mutable tx_staged_segments : int;
  mutable tx_staged_bytes : int;
  mutable sdma_timeouts : int;
  mutable adaptor_resets : int;
  mutable watchdog_polls : int;
  mutable tx_exhausted : int;
}

type ev_slot = { mutable ev : Cab.intr }

type t = {
  host : Host.t;
  cab : Cab.t;
  mode : Stack_mode.t;
  mutable ifc : Netif.t option;
  (* WCAB id -> live netmem packet, for retransmit rewrite and copy-out. *)
  live_outboard : (int, Netmem.packet) Hashtbl.t;
  (* Recovery plane (all inert when [watchdog = None]). *)
  watchdog : Simtime.t option;  (* lost-interrupt poll interval *)
  mutable inflight : int;  (* watched posts not yet completed *)
  poll_timer : Sim.handle;  (* reusable lost-interrupt poll timer *)
  mutable watch_key : int;
  (* watch key -> reset-recovery thunk for every in-flight watched post *)
  tx_watch : (int, unit -> unit) Hashtbl.t;
  (* RSS steering classifier: maps an adaptor event to the flow hash of
     the frame it carries (the stack installs one; see Netstack).  Only
     consulted on multi-shard hosts. *)
  mutable steer : (Cab.intr -> int option) option;
  held : ev_slot Ring.t array;
      (* per shard: burst events waiting for that shard's interrupt work *)
  held_counts : int array;  (* per-shard tally while a burst is split *)
  s : driver_stats;
}

let new_stats () =
  {
    tx_packets = 0;
    tx_uio_segments = 0;
    tx_kernel_segments = 0;
    tx_rewrites = 0;
    tx_adaptor_copies = 0;
    tx_drops = 0;
    rx_packets = 0;
    rx_wcab_delivered = 0;
    rx_copied_kernel = 0;
    copyouts = 0;
    unaligned_staged = 0;
    tx_gather_fallbacks = 0;
    tx_gather_bytes = 0;
    tx_staged_segments = 0;
    tx_staged_bytes = 0;
    sdma_timeouts = 0;
    adaptor_resets = 0;
    watchdog_polls = 0;
    tx_exhausted = 0;
  }

let iface t = Option.get t.ifc
let stats t = t.s

(* ---------- SDMA completion watchdog / recovery plane ----------

   Entirely opt-in: with [watchdog = None] (the default) none of this
   machinery runs and the clean path is byte-for-byte the old driver.

   Each "watched" SDMA program (every tx descriptor chain, copy-outs) gets
   a completion timer.  On expiry the driver reads the adaptor's stall
   status register ({!Cab.stalled_posts}): a stuck post is reclaimed
   ({!Cab.clear_stall}) and reposted with exponential backoff; a post
   that is merely slow (bus queueing) keeps waiting with no backoff
   growth.  After [max_sdma_retries] reposts the driver resets the
   adaptor, which re-runs every outstanding watched post from scratch.
   The base timeout [sdma_timeout] doubles per retry.

   A separate periodic poll timer covers lost completion interrupts: it
   calls {!Cab.poll}, which schedules a delivery burst for any stranded
   notifications, and stays armed while watched posts are in flight or
   events are pending. *)

let sdma_timeout = Simtime.us 1000.
let max_sdma_retries = 3

let backoff attempt =
  Simtime.us (Simtime.to_us sdma_timeout *. float_of_int (1 lsl min attempt 6))

let driver_reset t =
  t.s.adaptor_resets <- t.s.adaptor_resets + 1;
  (* A reset is a transmit-side fault the policy layer should see: while
     the adaptor is being bounced the outboard path is the wrong bet. *)
  (match t.ifc with
  | Some ifc -> ifc.Netif.tx_faults <- ifc.Netif.tx_faults + 1
  | None -> ());
  (* Snapshot first: recovery thunks repost, which mutates [tx_watch]. *)
  let thunks = Hashtbl.fold (fun _ f acc -> f :: acc) t.tx_watch [] in
  List.iter (fun f -> f ()) thunks

let arm_poll t interval =
  if not (Sim.armed t.poll_timer) then
    Sim.rearm (Cab.sim t.cab) t.poll_timer interval

(* Installed once on [poll_timer] at attach; re-arms in place (no
   allocation) while watched posts or stranded events remain. *)
let poll_fire t =
  t.s.watchdog_polls <- t.s.watchdog_polls + 1;
  ignore (Cab.poll t.cab);
  match t.watchdog with
  | Some interval when t.inflight > 0 || Cab.pending_events t.cab > 0 ->
      arm_poll t interval
  | _ -> ()

let kick_watchdog t =
  match t.watchdog with None -> () | Some interval -> arm_poll t interval

(* Run [post] (which must accept a completion callback and be safe to
   re-run after a [clear_stall]) under the watchdog, which must be armed;
   callers post straight to the adaptor when it is not.  [on_done] fires
   exactly once, on the first completion. *)
let watched_post t netpkt ~post ~on_done =
  let key = t.watch_key in
  t.watch_key <- key + 1;
  t.inflight <- t.inflight + 1;
  let completed = ref false in
  (* Generation stamp: reposting invalidates any timer armed for an
     earlier attempt, so at most one recovery path is live. *)
  let gen = ref 0 in
  (* The live watch timer, cancelled the moment the post completes —
     an O(1) wheel unlink instead of a tombstone that would sit in
     the scheduler until its (seconds-scale backoff) deadline. *)
  let watch : Sim.handle option ref = ref None in
  let finish () =
    if not !completed then begin
      completed := true;
      t.inflight <- t.inflight - 1;
      Hashtbl.remove t.tx_watch key;
      (match !watch with
      | Some h ->
          Sim.stop (Cab.sim t.cab) h;
          watch := None
      | None -> ());
      on_done ()
    end
  in
  let rec post_attempt attempt =
    incr gen;
    post ~on_complete:finish;
    arm_watch !gen attempt
  and arm_watch g attempt =
    watch :=
      Some
        (Sim.after (Cab.sim t.cab) (backoff attempt) (fun () ->
           if (not !completed) && !gen = g then
             if Cab.stalled_posts t.cab netpkt > 0 then
               if attempt >= max_sdma_retries then driver_reset t
               else begin
                 t.s.sdma_timeouts <- t.s.sdma_timeouts + 1;
                 Cab.clear_stall t.cab netpkt;
                 post_attempt (attempt + 1)
               end
             else
               (* Not stuck, just slow (bus queueing): keep waiting
                  at the same timeout — no backoff growth. *)
               arm_watch g attempt))
  in
  Hashtbl.replace t.tx_watch key (fun () ->
      if (not !completed) && Cab.stalled_posts t.cab netpkt > 0 then begin
        t.s.sdma_timeouts <- t.s.sdma_timeouts + 1;
        Cab.clear_stall t.cab netpkt;
        post_attempt 0
      end);
  post_attempt 0;
  kick_watchdog t

(* Post a copy-out of [pkt] with a completion interrupt, under the
   watchdog when it is armed. *)
let post_copy_out t pkt ~off ~len ~dst ~on_done =
  match t.watchdog with
  | None ->
      Cab.sdma_copy_out t.cab pkt ~off ~len ~dst ~interrupt:true
        ~on_complete:on_done
  | Some _ ->
      watched_post t pkt
        ~post:(fun ~on_complete ->
          Cab.sdma_copy_out t.cab pkt ~off ~len ~dst ~interrupt:true
            ~on_complete)
        ~on_done

let hippi_hdr = Hippi_framing.size (* 40 *)
let net_hdrs = Hippi_framing.size + Ipv4_header.size (* 60 *)

let channel_for dst = dst land 0x7

let word_pad n = (n + 3) land lnot 3

(* Translate the transport-relative offload record to packet offsets: the
   transport header starts after the HIPPI and IP headers. *)
let translate_csum (rec_ : Csum_offload.tx) =
  Csum_offload.make_tx
    ~csum_offset:(net_hdrs + rec_.Csum_offload.csum_offset)
    ~skip_bytes:(net_hdrs + rec_.Csum_offload.skip_bytes)
    ~seed:rec_.Csum_offload.seed

(* ---------- transmit ---------- *)

(* Length of the host-readable prefix: the leading internal/cluster mbufs
   (headers and any inline data). *)
let rec prefix_length (mb : Mbuf.t) acc =
  if Mbuf.is_descriptor mb then acc
  else
    match mb.Mbuf.next with
    | None -> acc + mb.Mbuf.len
    | Some nx -> prefix_length nx (acc + mb.Mbuf.len)

(* The last mbuf of the host-readable prefix: its [next] link is the
   descriptor pieces.  IP output always leads with a header mbuf, so the
   head is never a descriptor. *)
let rec prefix_tail (mb : Mbuf.t) =
  match mb.Mbuf.next with
  | Some nx when not (Mbuf.is_descriptor nx) -> prefix_tail nx
  | Some _ | None -> mb

(* Retransmission fast path: the payload is exactly the outboard image of
   a packet we still hold (§4.3). *)
let rewrite_candidate t ~prefix_len (pieces : Mbuf.t option) =
  match pieces with
  | Some ({ Mbuf.storage = Mbuf.Ext_wcab desc; next = None; _ } as mb) -> (
      match Hashtbl.find_opt t.live_outboard desc.Mbuf.wcab_id with
      | Some pkt as found
        when pkt.Netmem.state = Netmem.Held
             && mb.Mbuf.off = 0
             && desc.Mbuf.wcab_base = pkt.Netmem.hdr_len
             && hippi_hdr + prefix_len = pkt.Netmem.hdr_len
             && mb.Mbuf.len = pkt.Netmem.len - pkt.Netmem.hdr_len ->
          found
      | Some _ | None -> None)
  | Some _ | None -> None

(* Ledger attribution for the prefix gather in [write_header]: leading
   internal mbufs are protocol headers (prepended by the transports),
   cluster mbufs are staged payload (the unmodified stack's kernel
   copies), so the copy splits into header vs payload host touches. *)
let charge_prefix chain ~prefix_len =
  let rec go (m : Mbuf.t option) remaining =
    if remaining > 0 then
      match m with
      | None -> ()
      | Some mb ->
          let n = min remaining mb.Mbuf.len in
          (match Mbuf.kind mb with
          | Mbuf.K_internal ->
              Obs_ledger.touch Obs_ledger.Drv_tx_header Obs_ledger.Copy n
          | _ -> Obs_ledger.touch Obs_ledger.Drv_tx_gather Obs_ledger.Copy n);
          go mb.Mbuf.next (remaining - n)
  in
  go (Some chain) prefix_len

(* Write the packet's header image into [buf] at offset 0: HIPPI framing,
   the chain's [prefix_len]-byte host prefix, then zeros up to the word
   boundary.  The pad bytes ride through the transmit checksum engine but
   are never transmitted, so they must be zero (a ones-complement sum is
   unchanged by zeros). *)
let write_header t ~dst ~payload_total chain ~prefix_len buf =
  Hippi_framing.encode buf ~off:0 ~src:(Cab.hippi_addr t.cab) ~dst
    ~channel:(channel_for dst) ~payload_len:payload_total;
  Mbuf.copy_into chain ~off:0 ~len:prefix_len buf ~dst_off:hippi_hdr;
  let n = hippi_hdr + prefix_len in
  Bytes.fill buf n (word_pad n - n) '\000'

(* §4.5 guard, generalized to the whole scatter list: does any non-empty
   piece land off a word boundary, [off] being where the first lands?  An
   unaligned base (inline data ahead of descriptors) or an odd-length
   piece mid-list (coalesced sub-word writes) sends the packet down the
   gather path. *)
let rec scatter_unaligned off (m : Mbuf.t option) =
  match m with
  | None -> false
  | Some mb when mb.Mbuf.len = 0 -> scatter_unaligned off mb.Mbuf.next
  | Some mb ->
      off land 3 <> 0 || scatter_unaligned (off + mb.Mbuf.len) mb.Mbuf.next

(* Does a non-empty piece finish its write's UIO counter?  Then the chain
   raises a completion interrupt. *)
let rec wants_intr (m : Mbuf.t option) =
  match m with
  | None -> false
  | Some mb -> (
      mb.Mbuf.len > 0
      && (match mb.Mbuf.notify with
         | Some n -> n.Mbuf.dma_pending <= mb.Mbuf.len
         | None -> false)
      || wants_intr mb.Mbuf.next)

(* The payload SDMA for one non-empty piece landing at [pkt_off].  The
   source is captured now, so the piece can be freed before the chain
   commits.  A completion is built only for a piece that has something
   to do then: credit its write's UIO counter, or drop the pin on mbuf
   storage the adaptor reads in place. *)
let payload_seg t (mb : Mbuf.t) ~pkt_off =
  let seg = mb.Mbuf.len in
  let release = ref None in
  let src =
    match mb.Mbuf.storage with
    | Mbuf.Ext_uio r ->
        t.s.tx_uio_segments <- t.s.tx_uio_segments + 1;
        let sub = Region.sub r ~off:mb.Mbuf.off ~len:seg in
        if Region.is_word_aligned sub then Cab.From_user sub
        else begin
          (* §4.5 guard: the socket layer should have refused this; stage
             via kernel. *)
          t.s.tx_staged_segments <- t.s.tx_staged_segments + 1;
          t.s.tx_staged_bytes <- t.s.tx_staged_bytes + seg;
          Obs_ledger.touch Obs_ledger.Drv_tx_stage Obs_ledger.Copy seg;
          let b = Bytes.create seg in
          Region.blit_to_bytes sub ~src_off:0 b ~dst_off:0 ~len:seg;
          Cab.From_kernel { buf = b; off = 0; len = seg }
        end
    | Mbuf.Ext_wcab d ->
        (* Adaptor-local copy of data already in network memory (rare
           partial retransmit). *)
        t.s.tx_adaptor_copies <- t.s.tx_adaptor_copies + 1;
        Obs_ledger.touch Obs_ledger.Drv_tx_stage Obs_ledger.Copy seg;
        let b = Bytes.create seg in
        Bytes.blit d.Mbuf.wcab_bytes (d.Mbuf.wcab_base + mb.Mbuf.off) b 0 seg;
        Cab.From_kernel { buf = b; off = 0; len = seg }
    | Mbuf.Internal c | Mbuf.Cluster c ->
        t.s.tx_kernel_segments <- t.s.tx_kernel_segments + 1;
        (* Zero-copy capture: hand the adaptor a window on the mbuf
           storage itself.  The storage is pinned ([retain_storage]) so
           the pool cannot recycle it between the [Mbuf.free] of the
           pieces and the SDMA commit; the completion drops the pin. *)
        release := Some (Mbuf.retain_storage mb);
        Cab.From_kernel { buf = c.Mbuf.cbuf; off = mb.Mbuf.off; len = seg }
  in
  let on_seg_complete =
    match mb.Mbuf.notify with
    | Some n ->
        let release = !release in
        Some
          (fun () ->
            Mbuf.notify_complete_n n seg;
            match release with Some f -> f () | None -> ())
    | None -> !release
  in
  Cab.Seg_payload { src; pkt_off; on_seg_complete }

(* The payload SDMAs for the non-empty pieces, in order, the first
   landing at [off]. *)
let rec payload_segs t off (m : Mbuf.t option) =
  match m with
  | None -> []
  | Some mb when mb.Mbuf.len = 0 -> payload_segs t off mb.Mbuf.next
  | Some mb ->
      let seg = payload_seg t mb ~pkt_off:off in
      seg :: payload_segs t (off + mb.Mbuf.len) mb.Mbuf.next

(* An M_WCAB descriptor of [valid] bytes of [pkt] from [base] (§4.2):
   the transmit payload once it is in network memory (held for
   retransmission) or a received tail left outboard.  The packet stays
   live until the last reference drops. *)
let wcab_desc t (pkt : Netmem.packet) ~base ~valid =
  let desc =
    {
      Mbuf.wcab_id = pkt.Netmem.id;
      wcab_bytes = pkt.Netmem.buf;
      wcab_base = base;
      wcab_valid = valid;
      wcab_free =
        (fun () ->
          Hashtbl.remove t.live_outboard pkt.Netmem.id;
          Cab.free t.cab pkt);
      wcab_refs = ref 1;
    }
  in
  Hashtbl.replace t.live_outboard pkt.Netmem.id pkt;
  desc

(* Ring the doorbell for one transmit descriptor chain: after [cost] of
   host posting time the chain runs — under the watchdog when it is
   armed, where a stalled chain is reclaimed and reposted whole — and
   [on_done] fires on its first completion.  [mdma_send] is queued once,
   here: it waits on [sdma_pending] and fires when the (re)posted chain
   commits. *)
let post_chain t netpkt ~cost ~segs ~interrupt ~on_done ~dst ~keep =
  Host.in_intr t.host cost (fun () ->
      (match t.watchdog with
      | None ->
          Cab.sdma_chain t.cab netpkt ~segs ~interrupt ~on_complete:on_done
      | Some _ ->
          watched_post t netpkt
            ~post:(fun ~on_complete ->
              Cab.sdma_chain t.cab netpkt ~segs ~interrupt ~on_complete)
            ~on_done);
      Cab.mdma_send t.cab netpkt ~dst ~channel:(channel_for dst) ~keep)

let output t ifc pkt ~next_hop =
  match Netif.link_addr ifc next_hop with
  | None ->
      t.s.tx_drops <- t.s.tx_drops + 1;
      Mbuf.free pkt
  | Some dst -> (
      let total = Mbuf.pkt_len pkt in
      let prefix_len = prefix_length pkt 0 in
      let last = prefix_tail pkt in
      let pieces = last.Mbuf.next in
      let tx_csum =
        match pkt.Mbuf.pkthdr with
        | Some { Mbuf.tx_csum = Some c; _ } -> Some (translate_csum c)
        | Some { Mbuf.tx_csum = None; _ } | None -> None
      in
      let on_outboard =
        match pkt.Mbuf.pkthdr with
        | Some ph -> ph.Mbuf.on_outboard
        | None -> None
      in
      let post_cost = Memcost.dma_post t.host.Host.profile in
      match rewrite_candidate t ~prefix_len pieces with
      | Some netpkt ->
          (* Header rewrite: a one-header chain over the held packet — new
             header + saved body checksum; the data is not touched (§4.3).
             As on the scatter path, the header is gathered from the host
             prefix when the chain commits.  The chain is freed when the
             post completes, so its reference keeps the held packet in
             network memory until then. *)
          charge_prefix pkt ~prefix_len;
          t.s.tx_packets <- t.s.tx_packets + 1;
          t.s.tx_rewrites <- t.s.tx_rewrites + 1;
          post_chain t netpkt ~cost:post_cost
            ~segs:
              [
                Cab.Seg_header
                  {
                    len = netpkt.Netmem.hdr_len;
                    fill =
                      write_header t ~dst ~payload_total:total pkt ~prefix_len;
                    csum = tx_csum;
                  };
              ]
            ~interrupt:false
            ~on_done:(fun () -> Mbuf.free pkt)
            ~dst ~keep:true
      | None -> (
          let pkt_len = hippi_hdr + total in
          match Cab.tx_alloc t.cab ~len:(word_pad pkt_len) with
          | exception Netmem.Exhausted ->
              (* Network memory exhausted: drop; TCP retransmission
                 recovers.  Count it on the interface too so the socket
                 layer's policy can penalize the outboard path while the
                 adaptor is starved. *)
              t.s.tx_drops <- t.s.tx_drops + 1;
              t.s.tx_exhausted <- t.s.tx_exhausted + 1;
              ifc.Netif.tx_faults <- ifc.Netif.tx_faults + 1;
              Mbuf.free pkt
          | netpkt ->
              netpkt.Netmem.len <- pkt_len;
              charge_prefix pkt ~prefix_len;
              let payload_base = hippi_hdr + prefix_len in
              if scatter_unaligned payload_base pieces then begin
                (* Unaligned scatter (a packet mixing inline and descriptor
                   data, or descriptor pieces at sub-word offsets): gather
                   the whole packet into one kernel blob and DMA it as a
                   unit.  The checksum engine still covers [skip, end)
                   during the single SDMA. *)
                let blob = Bytes.make (word_pad pkt_len) '\000' in
                let gathered = total - prefix_len in
                Obs_ledger.touch Obs_ledger.Drv_tx_header Obs_ledger.Copy
                  (hippi_hdr + prefix_len);
                Obs_ledger.touch Obs_ledger.Drv_tx_gather Obs_ledger.Copy
                  gathered;
                write_header t ~dst ~payload_total:total pkt ~prefix_len blob;
                Mbuf.copy_into_raw pkt ~off:prefix_len
                  ~len:gathered blob
                  ~dst_off:(hippi_hdr + prefix_len);
                t.s.tx_packets <- t.s.tx_packets + 1;
                t.s.tx_gather_fallbacks <- t.s.tx_gather_fallbacks + 1;
                t.s.tx_gather_bytes <- t.s.tx_gather_bytes + gathered;
                (* Credit any UIO counters: the gather is the copy. *)
                Mbuf.iter
                  (fun (mb : Mbuf.t) ->
                    match (Mbuf.kind mb, mb.Mbuf.notify) with
                    | Mbuf.K_uio, Some n ->
                        Mbuf.notify_complete_n n mb.Mbuf.len
                    | _ -> ())
                  pkt;
                Mbuf.free pkt;
                post_chain t netpkt ~cost:post_cost
                  ~segs:
                    [
                      Cab.Seg_header
                        {
                          len = Bytes.length blob;
                          fill =
                            (fun buf ->
                              Bytes.blit blob 0 buf 0 (Bytes.length blob));
                          csum = tx_csum;
                        };
                    ]
                  ~interrupt:false ~on_done:ignore ~dst ~keep:false
              end
              else begin
                t.s.tx_packets <- t.s.tx_packets + 1;
                let payload_len = total - prefix_len in
                let interrupt = wants_intr pieces in
                (* Chained post: header + payload segments ride one
                   descriptor chain behind one doorbell.  Charged as one
                   doorbell ring plus a quarter-cost descriptor write per
                   chained segment — the batching saving the chain buys
                   over the old one-post-per-segment scheme.  One coalesced
                   completion interrupt stands in for the per-piece ones
                   when any piece asked for one. *)
                let segs =
                  Cab.Seg_header
                    {
                      len = word_pad payload_base;
                      fill =
                        write_header t ~dst ~payload_total:total pkt
                          ~prefix_len;
                      csum = tx_csum;
                    }
                  :: payload_segs t payload_base pieces
                in
                (* The pieces are captured, so they are freed now.  The
                   host prefix stays with [pkt] until the chain commits:
                   the header segment gathers it straight into network
                   memory then (again on a watchdog repost), and the
                   chain's completion frees it — after handing the
                   transport its M_WCAB image when it asked for one. *)
                last.Mbuf.next <- None;
                Option.iter Mbuf.free pieces;
                let on_done =
                  match on_outboard with
                  | Some hook when payload_len > 0 ->
                      fun () ->
                        hook
                          (wcab_desc t netpkt ~base:payload_base
                             ~valid:payload_len);
                        Mbuf.free pkt
                  | Some _ | None -> fun () -> Mbuf.free pkt
                in
                post_chain t netpkt
                  ~cost:(post_cost + (List.length segs * post_cost / 4))
                  ~segs ~interrupt ~on_done ~dst
                  ~keep:(Option.is_some on_outboard && payload_len > 0)
              end))

(* ---------- copy out (receive data to host) ---------- *)

let not_outboard () =
  invalid_arg "Cab_driver.copy_out: not an outboard mbuf of this device"

let copy_out t (mb : Mbuf.t) ~off ~len ~dst ~on_done =
  let desc =
    match mb.Mbuf.storage with
    | Mbuf.Ext_wcab desc -> desc
    | Mbuf.Internal _ | Mbuf.Cluster _ | Mbuf.Ext_uio _ -> not_outboard ()
  in
  match Hashtbl.find t.live_outboard desc.Mbuf.wcab_id with
  | exception Not_found -> not_outboard ()
  | pkt ->
      t.s.copyouts <- t.s.copyouts + 1;
      let abs_off = desc.Mbuf.wcab_base + mb.Mbuf.off + off in
      let post = Memcost.dma_post t.host.Host.profile in
      let direct_ok =
        abs_off land 3 = 0
        &&
        match dst with
        | Netif.To_user region -> Region.is_word_aligned region
        | Netif.To_kernel _ -> true
      in
      if direct_ok then
        Host.in_intr t.host post (fun () ->
            post_copy_out t pkt ~off:abs_off ~len ~dst ~on_done)
      else begin
        (* §4.5: unaligned destinations go the slow way — DMA an aligned
           superset into kernel staging, then memory-copy. *)
        t.s.unaligned_staged <- t.s.unaligned_staged + 1;
        let lead = abs_off land 3 in
        let stage_len = word_pad (len + lead) in
        let stage_len = min stage_len (pkt.Netmem.len - (abs_off - lead)) in
        let stage = Bytes.create stage_len in
        Host.in_intr t.host post (fun () ->
            post_copy_out t pkt ~off:(abs_off - lead) ~len:stage_len
              ~dst:(Netif.To_kernel (stage, 0))
              ~on_done:(fun () ->
                let copy_cost =
                  Memcost.copy t.host.Host.profile ~locality:Memcost.Cold len
                in
                Host.in_intr t.host ~site:Cpu.Copy copy_cost (fun () ->
                    Obs_ledger.touch Obs_ledger.Drv_rx_stage Obs_ledger.Copy
                      len;
                    (match dst with
                    | Netif.To_user region ->
                        Region.blit_from_bytes stage ~src_off:lead region
                          ~dst_off:0 ~len
                    | Netif.To_kernel (b, k_off) ->
                        Bytes.blit stage lead b k_off len);
                    on_done ())))
      end

(* ---------- receive ---------- *)

let deliver_chain t chain =
  match t.ifc with
  | Some ifc -> Netif.deliver ifc chain
  | None -> Mbuf.free chain

let rx_csum_rel = (4 * Hippi_framing.rx_csum_start_words) - Hippi_framing.size

(* Hand the transport the engine's receive checksum of the packet,
   which must still be live: the sum is read from its network memory. *)
let set_rx_csum (head : Mbuf.t) (info : Cab.rx_info) =
  match head.Mbuf.pkthdr with
  | Some ph ->
      ph.Mbuf.rx_csum <-
        Some
          (Csum_offload.make_rx ~engine_sum:(Cab.rx_engine_sum info)
             ~rx_start:rx_csum_rel)
  | None -> ()

let handle_rx t (info : Cab.rx_info) =
  t.s.rx_packets <- t.s.rx_packets + 1;
  let total = info.Cab.rx_total_len in
  let head_len = info.Cab.rx_head_len in
  let host_bytes = head_len - hippi_hdr in
  if host_bytes <= 0 then Cab.free t.cab info.Cab.rx_pkt
  else begin
    (* Copy the auto-DMA'd prefix (minus link framing) straight into
       pooled mbuf storage — no intermediate staging buffer. *)
    Obs_ledger.touch Obs_ledger.Drv_rx_head Obs_ledger.Copy host_bytes;
    let head =
      Mbuf.of_bytes ~pkthdr:true ~off:hippi_hdr ~len:host_bytes
        info.Cab.rx_head
    in
    if info.Cab.rx_complete then begin
      if t.mode = Stack_mode.Single_copy then set_rx_csum head info;
      Cab.free t.cab info.Cab.rx_pkt;
      deliver_chain t head
    end
    else begin
      let tail_len = total - head_len in
      match t.mode with
      | Stack_mode.Single_copy ->
          let desc =
            wcab_desc t info.Cab.rx_pkt ~base:head_len ~valid:tail_len
          in
          let tail = Mbuf.make_wcab ~desc ~len:tail_len in
          Mbuf.append head tail;
          set_rx_csum head info;
          t.s.rx_wcab_delivered <- t.s.rx_wcab_delivered + 1;
          deliver_chain t head
      | Stack_mode.Unmodified ->
          (* Baseline stack: the whole packet must land in kernel buffers
             before protocol processing; no hardware checksum is used.
             The copy-out DMA lands the tail in one contiguous pooled
             mbuf (the paper's 2-copy baseline profile: no re-copy into
             clusters); freeing it returns the storage to the pool. *)
          let tail, tail_buf = Mbuf.contiguous tail_len in
          let pkt = info.Cab.rx_pkt in
          let post = Memcost.dma_post t.host.Host.profile in
          Host.in_intr t.host post (fun () ->
              post_copy_out t pkt ~off:head_len ~len:tail_len
                ~dst:(Netif.To_kernel (tail_buf, 0))
                ~on_done:(fun () ->
                  Cab.free t.cab pkt;
                  Mbuf.append head tail;
                  t.s.rx_copied_kernel <- t.s.rx_copied_kernel + 1;
                  deliver_chain t head))
    end
  end

(* Handle the oldest [n] events held in [q], in order.  Sdma_done
   bookkeeping already ran in the on_complete hooks. *)
let rec handle_held t q n =
  if n > 0 then begin
    let slot = Ring.peek q in
    let ev = slot.ev in
    slot.ev <- Cab.Sdma_done;
    Ring.drop q;
    (match ev with
    | Cab.Rx_packet info -> handle_rx t info
    | Cab.Sdma_done -> ());
    handle_held t q (n - 1)
  end

(* The adaptor reuses its burst array, so each event is held in the ring
   of the shard that will handle it until that shard's interrupt work
   runs.  A shard's CPU runs its interrupt work in FIFO order, so the
   work for a burst of [n] events pops exactly its own [n]. *)
let interrupt_batch t burst n =
  (* NAPI-style burst: one interrupt entry/exit for the whole batch, a
     quarter-cost charge for each coalesced follower (its handler work
     runs inside the already-open interrupt), all in one charged step. *)
  let intr = Memcost.interrupt t.host.Host.profile in
  let nshards = Host.shard_count t.host in
  if nshards = 1 then begin
    let q = t.held.(0) in
    for i = 0 to n - 1 do
      (Ring.push q).ev <- burst.(i)
    done;
    let cost = intr + ((n - 1) * intr / 4) in
    Host.in_intr t.host cost (fun () -> handle_held t q n)
  end
  else begin
    (* RSS: split the batch by owning shard (classifier hash mod shard
       count; unclassifiable events go to shard 0) and raise one
       NAPI-style interrupt per shard, each on that shard's CPU, in
       shard order with per-shard event order preserved. *)
    let counts = t.held_counts in
    for i = 0 to n - 1 do
      let ev = burst.(i) in
      let s =
        match t.steer with
        | None -> 0
        | Some classify -> (
            match classify ev with
            | Some h -> h mod nshards
            | None ->
                Shard.note_default (Host.shard t.host 0);
                0)
      in
      (Ring.push t.held.(s)).ev <- ev;
      counts.(s) <- counts.(s) + 1
    done;
    for s = 0 to nshards - 1 do
      let k = counts.(s) in
      if k > 0 then begin
        counts.(s) <- 0;
        Shard.note_batch (Host.shard t.host s) k;
        let cost = intr + ((k - 1) * intr / 4) in
        (* Steered per-shard dispatch: this charge is the RSS demux
           path (classify + per-shard raise), distinct from the plain
           single-CPU interrupt entry above. *)
        let q = t.held.(s) in
        Host.in_intr_on t.host ~shard:s ~site:Cpu.Demux cost (fun () ->
            handle_held t q k)
      end
    done
  end;
  (* Keep the poll timer armed while anything could strand: a lost
     interrupt after this burst would otherwise leave events queued. *)
  if Cab.pending_events t.cab > 0 || t.inflight > 0 then kick_watchdog t

(* ---------- attach ---------- *)

let attach ~host ~ip ~cab ~addr ?(mtu = 32 * 1024) ~mode ?watchdog () =
  let t =
    {
      host;
      cab;
      mode;
      ifc = None;
      live_outboard = Hashtbl.create 64;
      watchdog;
      inflight = 0;
      poll_timer = Sim.timer (Cab.sim cab) ignore;
      watch_key = 0;
      tx_watch = Hashtbl.create 16;
      steer = None;
      held =
        Array.init (Host.shard_count host) (fun _ ->
            Ring.create (fun () -> { ev = Cab.Sdma_done }));
      held_counts = Array.make (Host.shard_count host) 0;
      s = new_stats ();
    }
  in
  Sim.set_fn t.poll_timer (fun () -> poll_fire t);
  let single_copy = Stack_mode.is_single_copy mode in
  let ifc =
    Netif.make ~name:(Cab.name cab) ~addr ~mtu ~single_copy
      ~copy_out:(fun mb ~off ~len ~dst ~on_done ->
        copy_out t mb ~off ~len ~dst ~on_done)
      ~output:(fun ifc pkt ~next_hop -> output t ifc pkt ~next_hop)
      ()
  in
  t.ifc <- Some ifc;
  (let section = "cab_driver." ^ Cab.name cab in
   let g name f = Obs.int_gauge ~section ~name f in
   g "tx_packets" (fun () -> t.s.tx_packets);
   g "tx_uio_segments" (fun () -> t.s.tx_uio_segments);
   g "tx_kernel_segments" (fun () -> t.s.tx_kernel_segments);
   g "tx_rewrites" (fun () -> t.s.tx_rewrites);
   g "tx_adaptor_copies" (fun () -> t.s.tx_adaptor_copies);
   g "tx_drops" (fun () -> t.s.tx_drops);
   g "rx_packets" (fun () -> t.s.rx_packets);
   g "rx_wcab_delivered" (fun () -> t.s.rx_wcab_delivered);
   g "rx_copied_kernel" (fun () -> t.s.rx_copied_kernel);
   g "copyouts" (fun () -> t.s.copyouts);
   g "unaligned_staged" (fun () -> t.s.unaligned_staged);
   g "tx_gather_fallbacks" (fun () -> t.s.tx_gather_fallbacks);
   g "tx_gather_bytes" (fun () -> t.s.tx_gather_bytes);
   g "tx_staged_segments" (fun () -> t.s.tx_staged_segments);
   g "tx_staged_bytes" (fun () -> t.s.tx_staged_bytes);
   g "sdma_timeouts" (fun () -> t.s.sdma_timeouts);
   g "adaptor_resets" (fun () -> t.s.adaptor_resets);
   g "watchdog_polls" (fun () -> t.s.watchdog_polls);
   g "tx_exhausted" (fun () -> t.s.tx_exhausted));
  Cab.set_batch_interrupt_handler cab (fun burst n ->
      interrupt_batch t burst n);
  Netif.attach_input ifc (fun m -> Ipv4.input ip ifc m);
  Host.add_iface host ifc;
  t

let add_neighbor t ip ~hippi_addr = Netif.add_neighbor (iface t) ip hippi_addr

let set_steer t classify = t.steer <- Some classify


let pp_stats fmt (s : driver_stats) =
  Format.fprintf fmt
    "tx %d pkts (%d uio segs, %d kernel segs, %d rewrites, %d adaptor \
     copies, %d drops, %d gather fallbacks / %d B, %d staged segs / %d B); \
     rx %d pkts (%d with outboard tails, %d copied to kernel); %d copy-outs \
     (%d staged); recovery: %d sdma timeouts, %d resets, %d polls, %d \
     exhausted"
    s.tx_packets s.tx_uio_segments s.tx_kernel_segments s.tx_rewrites
    s.tx_adaptor_copies s.tx_drops s.tx_gather_fallbacks s.tx_gather_bytes
    s.tx_staged_segments s.tx_staged_bytes s.rx_packets s.rx_wcab_delivered
    s.rx_copied_kernel s.copyouts s.unaligned_staged s.sdma_timeouts
    s.adaptor_resets s.watchdog_polls s.tx_exhausted
