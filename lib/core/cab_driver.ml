type driver_stats = {
  tx_packets : int;
  tx_uio_segments : int;
  tx_kernel_segments : int;
  tx_rewrites : int;
  tx_adaptor_copies : int;
  tx_conversions : int;
  tx_drops : int;
  rx_packets : int;
  rx_wcab_delivered : int;
  rx_copied_kernel : int;
  copyouts : int;
  unaligned_staged : int;
  tx_gather_fallbacks : int;  (* unaligned-scatter packets flattened *)
  tx_gather_bytes : int;
  tx_staged_segments : int;   (* unaligned pieces bounced via kernel *)
  tx_staged_bytes : int;
  sdma_timeouts : int;        (* stuck posts reclaimed and reposted *)
  adaptor_resets : int;       (* last-resort resets after max retries *)
  watchdog_polls : int;       (* lost-interrupt poll-timer firings *)
  tx_exhausted : int;         (* drops because netmem alloc failed *)
}

type t = {
  host : Host.t;
  cab : Cab.t;
  mode : Stack_mode.t;
  mutable ifc : Netif.t option;
  (* WCAB id -> live netmem packet, for retransmit rewrite and copy-out. *)
  live_outboard : (int, Netmem.packet) Hashtbl.t;
  (* Recovery plane (all inert when [watchdog = None]). *)
  watchdog : Simtime.t option;  (* lost-interrupt poll interval *)
  sdma_timeout : Simtime.t;  (* base completion timeout, doubled per retry *)
  max_sdma_retries : int;
  mutable inflight : int;  (* watched posts not yet completed *)
  poll_timer : Sim.handle;  (* reusable lost-interrupt poll timer *)
  mutable watch_key : int;
  (* watch key -> reset-recovery thunk for every in-flight watched post *)
  tx_watch : (int, unit -> unit) Hashtbl.t;
  (* RSS steering classifier: maps an adaptor event to the flow hash of
     the frame it carries (the stack installs one; see Netstack).  Only
     consulted on multi-shard hosts. *)
  mutable steer : (Cab.intr -> int option) option;
  mutable s : driver_stats;
}

let zero_stats =
  {
    tx_packets = 0;
    tx_uio_segments = 0;
    tx_kernel_segments = 0;
    tx_rewrites = 0;
    tx_adaptor_copies = 0;
    tx_conversions = 0;
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
let cab t = t.cab
let stats t = t.s

(* ---------- SDMA completion watchdog / recovery plane ----------

   Entirely opt-in: with [watchdog = None] (the default) none of this
   machinery runs and the clean path is byte-for-byte the old driver.

   Each "watched" SDMA program (the tx descriptor chain, copy-outs) gets
   a completion timer.  On expiry the driver reads the adaptor's stall
   status register ({!Cab.stalled_posts}): a stuck post is reclaimed
   ({!Cab.clear_stall}) and reposted with exponential backoff; a post
   that is merely slow (bus queueing) keeps waiting with no backoff
   growth.  After [max_sdma_retries] reposts the driver resets the
   adaptor, which re-runs every outstanding watched post from scratch.

   A separate periodic poll timer covers lost completion interrupts: it
   calls {!Cab.poll}, which schedules a delivery burst for any stranded
   notifications, and stays armed while watched posts are in flight or
   events are pending. *)

let backoff t attempt =
  Simtime.us
    (Simtime.to_us t.sdma_timeout *. float_of_int (1 lsl min attempt 6))

let driver_reset t =
  t.s <- { t.s with adaptor_resets = t.s.adaptor_resets + 1 };
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
  t.s <- { t.s with watchdog_polls = t.s.watchdog_polls + 1 };
  ignore (Cab.poll t.cab);
  match t.watchdog with
  | Some interval when t.inflight > 0 || Cab.pending_events t.cab > 0 ->
      arm_poll t interval
  | _ -> ()

let kick_watchdog t =
  match t.watchdog with None -> () | Some interval -> arm_poll t interval

(* Run [post] (which must accept a completion callback and be safe to
   re-run after a [clear_stall]) under the watchdog.  [on_done] fires
   exactly once, on the first completion. *)
let watched_post t netpkt ~post ~on_done =
  match t.watchdog with
  | None -> post ~on_complete:on_done
  | Some _ ->
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
              Sim.cancel (Cab.sim t.cab) h;
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
            (Sim.after (Cab.sim t.cab) (backoff t attempt) (fun () ->
               if (not !completed) && !gen = g then
                 if Cab.stalled_posts t.cab netpkt > 0 then
                   if attempt >= t.max_sdma_retries then driver_reset t
                   else begin
                     t.s <- { t.s with sdma_timeouts = t.s.sdma_timeouts + 1 };
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
            t.s <- { t.s with sdma_timeouts = t.s.sdma_timeouts + 1 };
            Cab.clear_stall t.cab netpkt;
            post_attempt 0
          end);
      post_attempt 0;
      kick_watchdog t

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

(* Host-readable prefix: the leading internal/cluster mbufs (headers and
   any inline data). *)
let split_prefix chain =
  let rec go (m : Mbuf.t option) acc =
    match m with
    | None -> (acc, [])
    | Some mb -> (
        match Mbuf.kind mb with
        | Mbuf.K_internal | Mbuf.K_cluster -> go mb.Mbuf.next (acc + mb.Mbuf.len)
        | Mbuf.K_uio | Mbuf.K_wcab ->
            let rec rest (m : Mbuf.t option) acc2 =
              match m with
              | None -> List.rev acc2
              | Some mb -> rest mb.Mbuf.next (mb :: acc2)
            in
            (acc, rest (Some mb) []))
  in
  go (Some chain) 0

(* Retransmission fast path: the payload is exactly the outboard image of
   a packet we still hold (§4.3). *)
let rewrite_candidate t ~prefix_len pieces =
  match pieces with
  | [ (mb : Mbuf.t) ] when Mbuf.kind mb = Mbuf.K_wcab -> (
      match mb.Mbuf.storage with
      | Mbuf.Ext_wcab desc -> (
          match Hashtbl.find_opt t.live_outboard desc.Mbuf.wcab_id with
          | Some pkt
            when pkt.Netmem.state = Netmem.Held
                 && mb.Mbuf.off = 0
                 && desc.Mbuf.wcab_base = pkt.Netmem.hdr_len
                 && hippi_hdr + prefix_len = pkt.Netmem.hdr_len
                 && mb.Mbuf.len = pkt.Netmem.len - pkt.Netmem.hdr_len ->
              Some pkt
          | Some _ | None -> None)
      | _ -> None)
  | _ -> None

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
  Hippi_framing.encode
    (Hippi_framing.make
       ~src:(Cab.hippi_addr t.cab)
       ~dst ~channel:(channel_for dst) ~payload_len:payload_total)
    buf ~off:0;
  Mbuf.copy_into chain ~off:0 ~len:prefix_len buf ~dst_off:hippi_hdr;
  let n = hippi_hdr + prefix_len in
  Bytes.fill buf n (word_pad n - n) '\000'

(* Unlink the descriptor pieces from behind the host-readable prefix and
   return them as a chain of their own; [chain] keeps the prefix.  IP
   output always leads with a header mbuf, so the head is never a
   descriptor. *)
let detach_pieces (chain : Mbuf.t) =
  let rec go (mb : Mbuf.t) =
    match mb.Mbuf.next with
    | Some nx when Mbuf.is_descriptor nx ->
        mb.Mbuf.next <- None;
        Some nx
    | Some nx -> go nx
    | None -> None
  in
  go chain

let output t ifc pkt ~next_hop =
  match Netif.link_addr ifc next_hop with
  | None ->
      t.s <- { t.s with tx_drops = t.s.tx_drops + 1 };
      Mbuf.free pkt
  | Some dst -> (
      let total = Mbuf.pkt_len pkt in
      let prefix_len, pieces = split_prefix pkt in
      let tx_csum =
        match pkt.Mbuf.pkthdr with
        | Some ph -> Option.map translate_csum ph.Mbuf.tx_csum
        | None -> None
      in
      let on_outboard =
        match pkt.Mbuf.pkthdr with
        | Some ph -> ph.Mbuf.on_outboard
        | None -> None
      in
      let post_cost = Memcost.dma_post t.host.Host.profile in
      match rewrite_candidate t ~prefix_len pieces with
      | Some netpkt ->
          (* Header rewrite: new header + saved body checksum; the data is
             not touched (§4.3). *)
          let hdr = Bytes.create (word_pad (hippi_hdr + prefix_len)) in
          charge_prefix pkt ~prefix_len;
          write_header t ~dst ~payload_total:total pkt ~prefix_len hdr;
          t.s <-
            {
              t.s with
              tx_packets = t.s.tx_packets + 1;
              tx_rewrites = t.s.tx_rewrites + 1;
            };
          Host.in_intr t.host post_cost (fun () ->
              Cab.tx_rewrite_header t.cab netpkt ~header:hdr ~csum:tx_csum ();
              Cab.mdma_send t.cab netpkt ~dst ~channel:(channel_for dst)
                ~keep:true;
              Mbuf.free pkt)
      | None -> (
          let pkt_len = hippi_hdr + total in
          match Cab.tx_alloc t.cab ~len:(word_pad pkt_len) with
          | None ->
              (* Network memory exhausted: drop; TCP retransmission
                 recovers.  Count it on the interface too so the socket
                 layer's policy can penalize the outboard path while the
                 adaptor is starved. *)
              t.s <-
                {
                  t.s with
                  tx_drops = t.s.tx_drops + 1;
                  tx_exhausted = t.s.tx_exhausted + 1;
                };
              ifc.Netif.tx_faults <- ifc.Netif.tx_faults + 1;
              Mbuf.free pkt
          | Some netpkt ->
              netpkt.Netmem.len <- pkt_len;
              charge_prefix pkt ~prefix_len;
              let payload_base = hippi_hdr + prefix_len in
              let nonempty =
                List.filter (fun (mb : Mbuf.t) -> mb.Mbuf.len > 0) pieces
              in
              (* §4.5 guard, generalized to the whole scatter list: every
                 piece must land word aligned.  An unaligned base (inline
                 data ahead of descriptors) or an odd-length piece mid-list
                 (coalesced sub-word writes) sends the packet down the
                 gather path. *)
              let scatter_unaligned =
                nonempty <> []
                &&
                let off = ref payload_base and bad = ref false in
                List.iter
                  (fun (mb : Mbuf.t) ->
                    if !off land 3 <> 0 then bad := true;
                    off := !off + mb.Mbuf.len)
                  nonempty;
                !bad
              in
              if scatter_unaligned then begin
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
                t.s <-
                  {
                    t.s with
                    tx_packets = t.s.tx_packets + 1;
                    tx_gather_fallbacks = t.s.tx_gather_fallbacks + 1;
                    tx_gather_bytes = t.s.tx_gather_bytes + gathered;
                  };
                (* Credit any UIO counters: the gather is the copy. *)
                Mbuf.iter
                  (fun (mb : Mbuf.t) ->
                    match (Mbuf.kind mb, mb.Mbuf.uwhdr) with
                    | Mbuf.K_uio, Some { Mbuf.notify = Some n; _ } ->
                        Mbuf.notify_complete_n n mb.Mbuf.len
                    | _ -> ())
                  pkt;
                Mbuf.free pkt;
                Host.in_intr t.host post_cost (fun () ->
                    Cab.sdma_header t.cab netpkt ~header:blob ~csum:tx_csum ();
                    Cab.mdma_send t.cab netpkt ~dst
                      ~channel:(channel_for dst) ~keep:false)
              end
              else begin
                t.s <- { t.s with tx_packets = t.s.tx_packets + 1 };
                (* Count payload SDMAs so the on_outboard hook fires when
                   the packet is fully outboard. *)
                let payload_len = total - prefix_len in
                let remaining = ref (List.length nonempty) in
                let keep = on_outboard <> None && payload_len > 0 in
                let maybe_convert () =
                  match on_outboard with
                  | Some hook when payload_len > 0 ->
                      let desc =
                        {
                          Mbuf.wcab_id = netpkt.Netmem.id;
                          wcab_bytes = netpkt.Netmem.buf;
                          wcab_base = hippi_hdr + prefix_len;
                          wcab_valid = payload_len;
                          wcab_body_sum = netpkt.Netmem.body_sum;
                          wcab_free =
                            (fun () ->
                              Hashtbl.remove t.live_outboard netpkt.Netmem.id;
                              Cab.tx_free t.cab netpkt);
                          wcab_refs = ref 1;
                        }
                      in
                      Hashtbl.replace t.live_outboard netpkt.Netmem.id netpkt;
                      hook desc
                  | Some _ | None -> ()
                in
                (* Describe the payload SDMAs (scatter/gather over the
                   pieces); the sources are captured eagerly so freeing the
                   chain below is safe. *)
                let pkt_off = ref payload_base in
                let payload_reqs =
                  List.map
                    (fun (mb : Mbuf.t) ->
                      let seg = mb.Mbuf.len in
                      let this_off = !pkt_off in
                      pkt_off := !pkt_off + seg;
                      let notify =
                        match mb.Mbuf.uwhdr with
                        | Some { Mbuf.notify = Some n; _ } -> Some n
                        | Some { Mbuf.notify = None; _ } | None -> None
                      in
                      let interrupt =
                        match notify with
                        | Some n -> n.Mbuf.dma_pending <= seg
                        | None -> false
                      in
                      (* Set for zero-copy captures: releases the pin on
                         the mbuf storage once the SDMA has committed. *)
                      let release = ref (fun () -> ()) in
                      let on_complete () =
                        (match notify with
                        | Some n -> Mbuf.notify_complete_n n seg
                        | None -> ());
                        !release ();
                        decr remaining;
                        if !remaining = 0 then maybe_convert ()
                      in
                      let src =
                        match mb.Mbuf.storage with
                        | Mbuf.Ext_uio d ->
                            t.s <-
                              {
                                t.s with
                                tx_uio_segments = t.s.tx_uio_segments + 1;
                              };
                            let sub =
                              Region.sub d.Mbuf.uio_region ~off:mb.Mbuf.off
                                ~len:seg
                            in
                            if Region.is_word_aligned sub then
                              Cab.From_user sub
                            else begin
                              (* §4.5 guard: the socket layer should have
                                 refused this; stage via kernel. *)
                              let b = Bytes.create seg in
                              Region.blit_to_bytes sub ~src_off:0 b
                                ~dst_off:0 ~len:seg;
                              Cab.From_kernel b
                            end
                        | Mbuf.Ext_wcab d ->
                            (* Adaptor-local copy of data already in
                               network memory (rare partial retransmit). *)
                            t.s <-
                              {
                                t.s with
                                tx_adaptor_copies = t.s.tx_adaptor_copies + 1;
                              };
                            Obs_ledger.touch Obs_ledger.Drv_tx_stage
                              Obs_ledger.Copy seg;
                            let b = Bytes.create seg in
                            Bytes.blit d.Mbuf.wcab_bytes
                              (d.Mbuf.wcab_base + mb.Mbuf.off)
                              b 0 seg;
                            Cab.From_kernel b
                        | Mbuf.Internal c | Mbuf.Cluster c ->
                            t.s <-
                              {
                                t.s with
                                tx_kernel_segments = t.s.tx_kernel_segments + 1;
                              };
                            (* Zero-copy capture: hand the adaptor a window
                               on the mbuf storage itself.  The storage is
                               pinned ([retain_storage]) so the pool cannot
                               recycle it between the [Mbuf.free] below and
                               the SDMA commit; [on_complete] drops the
                               pin. *)
                            release := Mbuf.retain_storage mb;
                            Cab.From_mbuf
                              { buf = c.Mbuf.cbuf; off = mb.Mbuf.off; len = seg }
                      in
                      (src, this_off, interrupt, on_complete))
                    nonempty
                in
                (* The pieces are captured, so they are freed now.  The
                   host prefix stays with [pkt] until the chain commits:
                   the header segment gathers it straight into network
                   memory then (again on a watchdog repost), and the
                   chain's completion frees it. *)
                Option.iter Mbuf.free (detach_pieces pkt);
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
                  :: List.map
                       (fun (src, this_off, _interrupt, on_complete) ->
                         Cab.Seg_payload
                           {
                             src;
                             pkt_off = this_off;
                             on_seg_complete = Some on_complete;
                           })
                       payload_reqs
                in
                let want_intr =
                  List.exists (fun (_, _, i, _) -> i) payload_reqs
                in
                let doorbell =
                  post_cost + (List.length segs * post_cost / 4)
                in
                Host.in_intr t.host doorbell (fun () ->
                    (* The chain is the watched unit: a stalled chain is
                       reclaimed and reposted whole.  [mdma_send] is
                       queued once, here — it waits on [sdma_pending]
                       and fires when the (re)posted chain commits. *)
                    watched_post t netpkt
                      ~post:(fun ~on_complete ->
                        Cab.sdma_chain t.cab netpkt ~segs
                          ~interrupt:want_intr ~on_complete ())
                      ~on_done:(fun () -> Mbuf.free pkt);
                    if payload_reqs = [] then maybe_convert ();
                    Cab.mdma_send t.cab netpkt ~dst
                      ~channel:(channel_for dst) ~keep)
              end))

(* ---------- copy out (receive data to host) ---------- *)

let find_packet t (mb : Mbuf.t) =
  match mb.Mbuf.storage with
  | Mbuf.Ext_wcab desc -> (
      match Hashtbl.find_opt t.live_outboard desc.Mbuf.wcab_id with
      | Some pkt -> Some (desc, pkt)
      | None -> None)
  | Mbuf.Internal _ | Mbuf.Cluster _ | Mbuf.Ext_uio _ -> None

let copy_out t (mb : Mbuf.t) ~off ~len ~dst ~on_done =
  match find_packet t mb with
  | None ->
      invalid_arg "Cab_driver.copy_out: not an outboard mbuf of this device"
  | Some (desc, pkt) ->
      t.s <- { t.s with copyouts = t.s.copyouts + 1 };
      let abs_off = desc.Mbuf.wcab_base + mb.Mbuf.off + off in
      let post = Memcost.dma_post t.host.Host.profile in
      let direct_ok =
        abs_off land 3 = 0
        &&
        match dst with
        | Netif.To_user (_, region) -> Region.is_word_aligned region
        | Netif.To_kernel _ -> true
      in
      if direct_ok then
        Host.in_intr t.host post (fun () ->
            watched_post t pkt
              ~post:(fun ~on_complete ->
                Cab.sdma_copy_out t.cab pkt ~off:abs_off ~len ~dst
                  ~interrupt:true ~on_complete ())
              ~on_done)
      else begin
        (* §4.5: unaligned destinations go the slow way — DMA an aligned
           superset into kernel staging, then memory-copy. *)
        t.s <- { t.s with unaligned_staged = t.s.unaligned_staged + 1 };
        let lead = abs_off land 3 in
        let stage_len = word_pad (len + lead) in
        let stage_len = min stage_len (pkt.Netmem.len - (abs_off - lead)) in
        let stage = Bytes.create stage_len in
        Host.in_intr t.host post (fun () ->
            watched_post t pkt
              ~post:(fun ~on_complete ->
                Cab.sdma_copy_out t.cab pkt ~off:(abs_off - lead)
                  ~len:stage_len
                  ~dst:(Netif.To_kernel (stage, 0))
                  ~interrupt:true ~on_complete ())
              ~on_done:(fun () ->
                let copy_cost =
                  Memcost.copy t.host.Host.profile ~locality:Memcost.Cold len
                in
                Host.in_intr t.host ~site:Cpu.Copy copy_cost (fun () ->
                    Obs_ledger.touch Obs_ledger.Drv_rx_stage Obs_ledger.Copy
                      len;
                    (match dst with
                    | Netif.To_user (_, region) ->
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

let handle_rx t (info : Cab.rx_info) =
  t.s <- { t.s with rx_packets = t.s.rx_packets + 1 };
  let total = info.Cab.rx_total_len in
  let head_len = info.Cab.rx_head_len in
  let host_bytes = head_len - hippi_hdr in
  if host_bytes <= 0 then Cab.rx_free t.cab info.Cab.rx_pkt
  else begin
    (* Copy the auto-DMA'd prefix (minus link framing) straight into
       pooled mbuf storage — no intermediate staging buffer. *)
    Obs_ledger.touch Obs_ledger.Drv_rx_head Obs_ledger.Copy host_bytes;
    let head =
      Mbuf.of_bytes ~pkthdr:true ~off:hippi_hdr ~len:host_bytes
        info.Cab.rx_head
    in
    if info.Cab.rx_complete then begin
      Cab.rx_free t.cab info.Cab.rx_pkt;
      (match (t.mode, head.Mbuf.pkthdr) with
      | Stack_mode.Single_copy, Some ph ->
          ph.Mbuf.rx_csum <-
            Some
              (Csum_offload.make_rx ~engine_sum:info.Cab.rx_engine_sum
                 ~rx_start:rx_csum_rel)
      | _ -> ());
      deliver_chain t head
    end
    else begin
      let tail_len = total - head_len in
      match t.mode with
      | Stack_mode.Single_copy ->
          let pkt = info.Cab.rx_pkt in
          let desc =
            {
              Mbuf.wcab_id = pkt.Netmem.id;
              wcab_bytes = pkt.Netmem.buf;
              wcab_base = head_len;
              wcab_valid = tail_len;
              wcab_body_sum = info.Cab.rx_engine_sum;
              wcab_free =
                (fun () ->
                  Hashtbl.remove t.live_outboard pkt.Netmem.id;
                  Cab.rx_free t.cab pkt);
              wcab_refs = ref 1;
            }
          in
          Hashtbl.replace t.live_outboard pkt.Netmem.id pkt;
          let tail = Mbuf.make_wcab ~desc ~len:tail_len ~hdr:None in
          Mbuf.append head tail;
          (match head.Mbuf.pkthdr with
          | Some ph ->
              ph.Mbuf.rx_csum <-
                Some
                  (Csum_offload.make_rx ~engine_sum:info.Cab.rx_engine_sum
                     ~rx_start:rx_csum_rel)
          | None -> ());
          t.s <- { t.s with rx_wcab_delivered = t.s.rx_wcab_delivered + 1 };
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
              watched_post t pkt
                ~post:(fun ~on_complete ->
                  Cab.sdma_copy_out t.cab pkt ~off:head_len ~len:tail_len
                    ~dst:(Netif.To_kernel (tail_buf, 0))
                    ~interrupt:true ~on_complete ())
                ~on_done:(fun () ->
                  Cab.rx_free t.cab pkt;
                  Mbuf.append head tail;
                  t.s <-
                    { t.s with rx_copied_kernel = t.s.rx_copied_kernel + 1 };
                  deliver_chain t head))
    end
  end

let handle_ev t = function
  | Cab.Sdma_done _ -> ()
  | Cab.Rx_packet info -> handle_rx t info

let interrupt_batch t evs =
  (* NAPI-style burst: one interrupt entry/exit for the whole batch, a
     quarter-cost charge for each coalesced follower (its handler work
     runs inside the already-open interrupt), all in one charged step.
     Sdma_done bookkeeping already ran in the on_complete hooks. *)
  let intr = Memcost.interrupt t.host.Host.profile in
  let nshards = Host.shard_count t.host in
  if nshards = 1 then begin
    let n = List.length evs in
    let cost = intr + ((n - 1) * intr / 4) in
    Host.in_intr t.host cost (fun () -> List.iter (handle_ev t) evs)
  end
  else begin
    (* RSS: split the batch by owning shard (classifier hash mod shard
       count; unclassifiable events go to shard 0) and raise one
       NAPI-style interrupt per shard, each on that shard's CPU, in
       shard order with per-group event order preserved. *)
    let groups = Array.make nshards [] in
    List.iter
      (fun ev ->
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
        groups.(s) <- ev :: groups.(s))
      evs;
    Array.iteri
      (fun s g ->
        match List.rev g with
        | [] -> ()
        | g ->
            let n = List.length g in
            Shard.note_batch (Host.shard t.host s) n;
            let cost = intr + ((n - 1) * intr / 4) in
            (* Steered per-shard dispatch: this charge is the RSS demux
               path (classify + per-shard raise), distinct from the
               plain single-CPU interrupt entry above. *)
            Host.in_intr_on t.host ~shard:s ~site:Cpu.Demux cost (fun () ->
                List.iter (handle_ev t) g))
      groups
  end;
  (* Keep the poll timer armed while anything could strand: a lost
     interrupt after this burst would otherwise leave events queued. *)
  if Cab.pending_events t.cab > 0 || t.inflight > 0 then kick_watchdog t

(* ---------- attach ---------- *)

let attach ~host ~ip ~cab ~addr ?(mtu = 32 * 1024) ~mode ?watchdog
    ?(sdma_timeout = Simtime.us 1000.) ?(max_sdma_retries = 3)
    ?rx_pipe_depth () =
  (match rx_pipe_depth with
  | Some d -> Cab.set_rx_pipe_depth cab d
  | None -> ());
  let t =
    {
      host;
      cab;
      mode;
      ifc = None;
      live_outboard = Hashtbl.create 64;
      watchdog;
      sdma_timeout;
      max_sdma_retries;
      inflight = 0;
      poll_timer = Sim.timer (Cab.sim cab) ignore;
      watch_key = 0;
      tx_watch = Hashtbl.create 16;
      steer = None;
      s = zero_stats;
    }
  in
  Sim.set_fn t.poll_timer (fun () -> poll_fire t);
  let single_copy = Stack_mode.is_single_copy mode in
  let ifc =
    Netif.make ~name:(Cab.name cab) ~addr ~mtu ~single_copy
      ~hw_csum_rx:single_copy
      ~copy_out:(fun mb ~off ~len ~dst ~on_done ->
        copy_out t mb ~off ~len ~dst ~on_done)
      ~output:(fun ifc pkt ~next_hop -> output t ifc pkt ~next_hop)
      ()
  in
  t.ifc <- Some ifc;
  (let section = "cab_driver." ^ Cab.name cab in
   let g name f = Obs.gauge ~section ~name (fun () -> float_of_int (f ())) in
   g "tx_packets" (fun () -> t.s.tx_packets);
   g "tx_uio_segments" (fun () -> t.s.tx_uio_segments);
   g "tx_kernel_segments" (fun () -> t.s.tx_kernel_segments);
   g "tx_rewrites" (fun () -> t.s.tx_rewrites);
   g "tx_adaptor_copies" (fun () -> t.s.tx_adaptor_copies);
   g "tx_conversions" (fun () -> t.s.tx_conversions);
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
  Cab.set_batch_interrupt_handler cab (fun evs -> interrupt_batch t evs);
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
