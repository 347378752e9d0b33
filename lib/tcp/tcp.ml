type state =
  | Closed
  | Syn_sent
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

let state_to_string = function
  | Closed -> "CLOSED"
  | Syn_sent -> "SYN_SENT"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

type config = {
  mss_cap : int option;
  snd_buf : int;
  rcv_buf : int;
  msl : Simtime.t;
  coalesce_descriptors : bool;
  keepalive_idle : Simtime.t;
  keepalive_intvl : Simtime.t;
  keepalive_probes : int;
}

let default_config =
  {
    mss_cap = None;
    snd_buf = 512 * 1024;
    rcv_buf = 512 * 1024;
    msl = Simtime.ms 20.;
    coalesce_descriptors = false;
    keepalive_idle = 0;
    keepalive_intvl = Simtime.ms 100.;
    keepalive_probes = 4;
  }

(* Timer constants: delayed-ACK delay, initial RTO (also the first
   SYN-ACK retransmit deadline), the floor of the computed RTO, the RTO
   backoff cap, and the consecutive RTO expirations before a connection
   is dropped (BSD's TCP_MAXRXTSHIFT). *)
let delack_delay = Simtime.ms 2.
let rto_init = Simtime.ms 200.
let rto_min = Simtime.ms 100.
let rto_max = Simtime.s 2.
let max_rexmt = 12

type pcb_stats = {
  mutable segs_sent : int;
  mutable segs_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable acks_rcvd : int;
  mutable dup_acks : int;
  mutable retransmits : int;
  mutable rto_fires : int;
  mutable fast_retransmits : int;
  mutable csum_offloaded_tx : int;
  mutable csum_host_tx : int;
  mutable csum_hw_verified_rx : int;
  mutable csum_host_verified_rx : int;
  mutable csum_failures_rx : int;
  mutable wcab_converted : int;
  mutable wcab_retransmit_hits : int;
  mutable dropped_wcab_legacy : int;
  mutable descriptor_merges : int;
}

(* Process-wide recovery aggregates: pcbs come and go, but the soak
   harness and the fault benchmarks read the healing evidence (every
   corrupted segment dropped, every drop retransmitted) through one
   registry lookup under section "tcp". *)
let agg_retransmits = Obs.counter ~section:"tcp" ~name:"retransmits"
let agg_rto_fires = Obs.counter ~section:"tcp" ~name:"rto_fires"
let agg_fast_retransmits = Obs.counter ~section:"tcp" ~name:"fast_retransmits"

let agg_csum_failures_rx =
  Obs.counter ~section:"tcp" ~name:"csum_failures_rx"

(* Connection-plane telemetry (section "conn"): every admission decision
   the listener makes — queued, promoted, shed, cookied, reaped — is
   published process-globally, so the overload benches and the gate
   assert on evidence (sheds and cookies actually happened) rather than
   on throughput alone. *)
let conn_syn_rcvd = Obs.counter ~section:"conn" ~name:"syn_rcvd"
let conn_syn_queued = Obs.counter ~section:"conn" ~name:"syn_queued"
let conn_syn_dup = Obs.counter ~section:"conn" ~name:"syn_dup"
let conn_synack_rexmits = Obs.counter ~section:"conn" ~name:"synack_rexmits"
let conn_syn_timeouts = Obs.counter ~section:"conn" ~name:"syn_timeouts"
let conn_syn_drop_full = Obs.counter ~section:"conn" ~name:"syn_drop_full"
let conn_cookies_sent = Obs.counter ~section:"conn" ~name:"cookies_sent"

let conn_cookies_validated =
  Obs.counter ~section:"conn" ~name:"cookies_validated"

let conn_cookies_rejected =
  Obs.counter ~section:"conn" ~name:"cookies_rejected"

let conn_promoted = Obs.counter ~section:"conn" ~name:"promoted"
let conn_accept_queued = Obs.counter ~section:"conn" ~name:"accept_queued"
let conn_accepted = Obs.counter ~section:"conn" ~name:"accepted"

let conn_accept_overflow =
  Obs.counter ~section:"conn" ~name:"accept_overflow"

let conn_shed_pressure = Obs.counter ~section:"conn" ~name:"shed_pressure"
let conn_shed_accept = Obs.counter ~section:"conn" ~name:"shed_accept"
let conn_shed_penalty = Obs.counter ~section:"conn" ~name:"shed_penalty"
let conn_flood_injected = Obs.counter ~section:"conn" ~name:"flood_injected"

let conn_keepalive_probes =
  Obs.counter ~section:"conn" ~name:"keepalive_probes"

let conn_keepalive_drops =
  Obs.counter ~section:"conn" ~name:"keepalive_drops"

let conn_listen_drained = Obs.counter ~section:"conn" ~name:"listen_drained"
let conn_port_lookups = Obs.counter ~section:"conn" ~name:"port_lookups"

let new_stats () =
  {
    segs_sent = 0;
    segs_rcvd = 0;
    bytes_sent = 0;
    bytes_rcvd = 0;
    acks_rcvd = 0;
    dup_acks = 0;
    retransmits = 0;
    rto_fires = 0;
    fast_retransmits = 0;
    csum_offloaded_tx = 0;
    csum_host_tx = 0;
    csum_hw_verified_rx = 0;
    csum_host_verified_rx = 0;
    csum_failures_rx = 0;
    wcab_converted = 0;
    wcab_retransmit_hits = 0;
    dropped_wcab_legacy = 0;
    descriptor_merges = 0;
  }

type pcb = {
  tcp : t;
  mutable st : state;
  local_addr : Inaddr.t;
  lport : int;
  raddr : Inaddr.t;
  rport : int;
  (* RSS: the Toeplitz hash of the demux tuple and the shard it maps to.
     Every CPU charge for this connection goes to that shard's CPU, and
     the driver's steering classifier computes the same hash, so rx
     interrupts arrive there too. *)
  flow_hash : int;
  shard : int;
  (* send state *)
  iss : Tcp_seq.t;
  mutable snd_una : Tcp_seq.t;
  mutable snd_nxt : Tcp_seq.t;
  mutable snd_max : Tcp_seq.t;  (* highest sequence ever sent *)
  mutable snd_wnd : int;
  mutable snd_wl1 : Tcp_seq.t;
  mutable snd_wl2 : Tcp_seq.t;
  mutable snd_wscale : int;
  sendq : Tcp_sendq.t;
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  (* receive state *)
  mutable rcv_nxt : Tcp_seq.t;
  mutable rcv_adv : Tcp_seq.t;  (* highest window edge advertised *)
  mutable rcv_wscale : int;
  mutable rcvq : Mbuf.t list;  (* in-order data for the application *)
  mutable rcvq_len : int;
  reasm : Tcp_reasm.t;
  (* MSS *)
  mutable mss_val : int;
  (* timers *)
  (* Reusable timers ([Sim.timer]): one record + one callback per pcb
     for the whole connection lifetime, re-armed in place so the RTO /
     delayed-ack hot paths allocate nothing.  [Sim.armed] replaces the
     old [option] state. *)
  rexmt_timer : Sim.handle;
  delack_timer : Sim.handle;
  persist_timer : Sim.handle;
  time_wait_timer : Sim.handle;
  keep_timer : Sim.handle;
  mutable keep_probes : int;
  (* RTT estimation (Jacobson/Karn) *)
  mutable srtt : Simtime.t;  (* 0 = no sample yet *)
  mutable rttvar : Simtime.t;
  mutable rto : Simtime.t;
  (* The timed segment's end and its send time; [rtt_t0 = -1] when
     nothing is being timed. *)
  mutable rtt_seq : Tcp_seq.t;
  mutable rtt_t0 : Simtime.t;
  (* Latency instrumentation (Obs_lat): one timed write at a time
     (Karn-style, discarded on retransmit; [wr_t0 = -1] when none), and
     the pcb-creation stamp for the SYN->ESTABLISHED histogram (-1 once
     observed). *)
  mutable wr_seq : Tcp_seq.t;
  mutable wr_t0 : Simtime.t;
  mutable setup_t0 : Simtime.t;
  (* ack policy *)
  mutable ack_pending : bool;
  mutable need_ack_now : bool;
  mutable dupacks : int;
  mutable recover : Tcp_seq.t;  (* fast-recovery high-water mark *)
  mutable rexmt_shift : int;  (* consecutive RTO expirations *)
  (* Application working-set hints (bytes the app cycles through), used by
     the cache model for host checksum passes. *)
  mutable ws_hint_tx : int;
  mutable ws_hint_rx : int;
  (* The route's interface at creation takes the single-copy path: data
     segments then carry the M_UIO -> M_WCAB hook for the driver.
     Resolved once per connection, not per segment. *)
  single_copy : bool;
  (* Steady-state transmit fast path (§4.2: per-packet bookkeeping must
     stay cheap): a preencoded base header patched per segment, and the
     pseudo-header checksum seed for len = 0 — per-segment seeds are one
     [add_u16] instead of a full pseudo-header recomputation.  The
     address/port fields never change for a connection, and the seed is
     src/dst-commutative so the same base verifies receive checksums. *)
  tpl : Bytes.t;
  csum_base : Inet_csum.sum;
  (* The output pump: its guard, the charge context the running pump was
     started with, and its per-segment continuation, built once per pcb
     so that pumping a segment allocates no closure. *)
  mutable pumping : bool;
  mutable pump_proc : string;
  mutable pump_intr : bool;
  mutable pump_site : Cpu.site;
  mutable pump_k : unit -> unit;
  (* Receive-cost piggyback (bidirectional path policy): a pending hint
     rides out on the next non-SYN control segment; incoming hints go to
     the handler the socket layer installs.  Data segments are untouched
     so the preencoded-template fast path stays hot. *)
  mutable rx_cost_pending : Tcp_header.option_ option;
  mutable on_rx_cost : (bucket:int -> uio_us:int -> copy_us:int -> unit) option;
  (* callbacks *)
  mutable on_readable : unit -> unit;
  mutable on_sendable : unit -> unit;
  mutable on_established : unit -> unit;
  mutable on_closed : unit -> unit;
  stats : pcb_stats;
}

and t = {
  ip : Ipv4.t;
  hst : Host.t;
  cfg : config;
  shard_count : int;
  tabs : pcb Flowtab.t array;
      (* per-shard demux: (lport, raddr, rport) -> pcb, O(1) via the
         RSS flow hash (shard = hash mod shard_count) *)
  ports : listener Flowtab.t;
      (* O(1) listening-port table (the Flowtab shape again, keyed on the
         wildcard tuple (port, any, 0)), one per host: every shard reads
         it, and a SYN is then admitted entirely on the shard its tuple
         hashes to. *)
  mutable next_port : int;
  mutable next_iss : int;
  iss_rng : Rng.t;
      (* per-instance stream salting ISS bumps so a 4-tuple reopened
         inside time-wait cannot land on a colliding sequence range *)
  mutable pressure_fn : unit -> float;
      (* memory-pressure signal in [0,1] (mbuf/netmem occupancy), wired
         by the harness; near 1.0 the listener sheds all new work *)
  penalty : float array;
      (* per-shard admission penalty, Path_policy-shaped: multiplicative
         bump on SYN-queue overflow, slow decay on each admission *)
  sat_tick : int array;
      (* per-shard count of SYNs that arrived while the SYN queue was
         saturated — the penalty's rate-limit alternates on its parity *)
  flood_rng : Rng.t;
      (* forged-tuple stream for the tcp.synflood fault site; separate
         from iss_rng so arming a flood never shifts legacy ISS draws *)
  cookie_secret : int;
  staging : Bytes.t;
      (* preallocated header-decode staging for the straddling-segment
         slow path in [input] *)
}

(* A half-open connection: the compact record a SYN creates instead of a
   full pcb.  A handful of words versus the pcb's dozens plus five timer
   handles, a send queue and a reassembly buffer — the point of the
   bounded SYN queue is that a flood occupies these, never pcbs. *)
and half_open = {
  ho_laddr : Inaddr.t;
  ho_raddr : Inaddr.t;
  ho_lport : int;
  ho_rport : int;
  ho_shard : int;
  ho_iss : Tcp_seq.t;
  ho_irs : Tcp_seq.t;
  ho_mss : int;  (* effective MSS: our default min the peer's offer *)
  ho_wscale : int;  (* peer's offered shift, -1 = not offered *)
  ho_created : Simtime.t;
  mutable ho_deadline : Simtime.t;
  mutable ho_rexmits : int;
  ho_forged : bool;  (* injected by the synflood site: will never ACK *)
}

and listener = {
  l_tcp : t;
  l_port : int;
  l_rst_on_full : bool;  (* RST (vs silently drop) on accept overflow *)
  l_cookies : bool;  (* stateless fallback when the SYN queue saturates *)
  l_on_accept : (pcb -> unit) option;
      (* auto-accept callback (the legacy [listen] API); [None] means
         completed connections queue for [accept] *)
  mutable l_on_acceptable : unit -> unit;
  l_q : (half_open, pcb * Simtime.t) Listenq.t;
  l_acc_shard : int array;  (* accept-queue occupancy per owning shard *)
  l_reaper : Sim.handle;
      (* one timer for every half-open behind this port: armed only
         while the SYN table is non-empty, so an idle or clean-handshake
         listener schedules nothing *)
  mutable l_closed : bool;
  mutable l_cookies_sent : int;
}

let state pcb = pcb.st
let local_port pcb = pcb.lport
let remote pcb = (pcb.raddr, pcb.rport)
let snd_space pcb = Tcp_sendq.space pcb.sendq
let pcb_stats pcb = pcb.stats
let pcb_config pcb = pcb.tcp.cfg
let remote_iface pcb =
  Option.map fst (Ipv4.route_for pcb.tcp.ip ~dst:pcb.raddr)
let pcb_shard pcb = pcb.shard

let active_flows t = Array.fold_left (fun a tab -> a + Flowtab.length tab) 0 t.tabs

let set_pressure_fn tcp f = tcp.pressure_fn <- f

(* Demux key packing for the per-shard flow tables. *)
let key_a ~lport ~rport = (lport lsl 16) lor rport

(* Listening ports reuse the Flowtab machinery with the wildcard tuple
   (port, any, 0): same open addressing, same O(1) lookup/insert/remove. *)
let port_hash port = Flow_hash.hash ~raddr:Inaddr.any ~lport:port ~rport:0
let port_ka port = key_a ~lport:port ~rport:0
let port_kb = Flow_hash.addr_bits Inaddr.any

let find_listener tcp ~port =
  Obs.Counter.incr conn_port_lookups;
  Flowtab.find tcp.ports ~hash:(port_hash port) ~ka:(port_ka port)
    ~kb:port_kb

(* Half-open key within one listener's SYN table: remote address bits
   and remote port (the local tuple is fixed per listener). *)
let half_open_key ~raddr ~rport =
  (Flow_hash.addr_bits raddr lsl 16) lor rport

let set_callbacks pcb ?on_readable ?on_sendable ?on_closed () =
  (match on_readable with Some f -> pcb.on_readable <- f | None -> ());
  (match on_sendable with Some f -> pcb.on_sendable <- f | None -> ());
  match on_closed with Some f -> pcb.on_closed <- f | None -> ()

let set_rx_cost_handler pcb f = pcb.on_rx_cost <- Some f

let post_rx_cost pcb ~bucket ~uio_us ~copy_us =
  pcb.rx_cost_pending <-
    Some (Tcp_header.Rx_cost { bucket; uio_us; copy_us })

(* ---------- timers ---------- *)

let sim_of pcb = pcb.tcp.hst.Host.sim
let cancel_rexmt pcb = Sim.stop (sim_of pcb) pcb.rexmt_timer
let cancel_delack pcb = Sim.stop (sim_of pcb) pcb.delack_timer
let cancel_persist pcb = Sim.stop (sim_of pcb) pcb.persist_timer

(* ---------- window / mss helpers ---------- *)

let rcv_space pcb =
  max 0
    (pcb.tcp.cfg.rcv_buf - pcb.rcvq_len - Tcp_reasm.bytes_held pcb.reasm)

let wanted_wscale cfg =
  let rec go s = if cfg.rcv_buf lsr s <= 0xffff then s else go (s + 1) in
  go 0

let route_mss tcp route =
  let iface_mtu =
    match route with Some (ifc, _) -> ifc.Netif.mtu | None -> 1500
  in
  let mss = iface_mtu - Ipv4_header.size - Tcp_header.base_size in
  match tcp.cfg.mss_cap with Some c -> min c mss | None -> mss

let default_mss tcp ~dst = route_mss tcp (Ipv4.route_for tcp.ip ~dst)

(* ---------- segment transmission ---------- *)

let window_field pcb =
  let w = rcv_space pcb lsr pcb.rcv_wscale in
  min w 0xffff

(* The segment: [hbytes] (checksum field already set) in front of the
   payload.  [hbytes] may be the shared template, so it is copied. *)
let build_seg hbytes hdr_len (payload : Mbuf.t option) =
  match payload with
  | Some p ->
      let head = Mbuf.prepend p hdr_len in
      Mbuf.copy_from head ~off:0 ~len:hdr_len hbytes ~src_off:0;
      head
  | None -> Mbuf.of_bytes ~pkthdr:true ~len:hdr_len hbytes

(* A header carrying options, encoded with its checksum field zero. *)
let encode_header ~hdr_len ~flags ~window ~options ~src_port ~dst_port ~seq
    ~ack =
  let b = Bytes.create hdr_len in
  Tcp_header.encode
    (Tcp_header.make ~flags ~window ~options ~src_port ~dst_port ~seq ~ack ())
    ~csum:0 b ~off:0;
  b

(* The host checksum: seed [pseudo] (pseudo-header plus segment length),
   the header bytes and the payload's sum, stored in the header. *)
let set_host_csum hbytes hdr_len ~pseudo payload_sum =
  let hdr_sum = Inet_csum.of_slice hbytes ~off:0 ~len:hdr_len in
  let total =
    Inet_csum.add pseudo
      (Inet_csum.concat ~first_len:hdr_len hdr_sum payload_sum)
  in
  Bytes.set_uint16_be hbytes Tcp_header.csum_field_offset
    (Inet_csum.finish total)

let ip_output tcp ~src ~dst seg =
  match Ipv4.output tcp.ip ~proto:Ipv4_header.proto_tcp ~src ~dst seg with
  | Ok _ | Error _ -> ()

let ip_send pcb seg = ip_output pcb.tcp ~src:pcb.local_addr ~dst:pcb.raddr seg

(* What [emit] did with a segment. *)
type emitted =
  | Sent
  | No_route
  | Outboard_on_legacy
      (* outboard data routed at a device that cannot read it: the
         segment was dropped and the range must be copied back *)

let send_segment pcb seg ~payload_len ~csum_cost =
  pcb.stats.segs_sent <- pcb.stats.segs_sent + 1;
  pcb.stats.bytes_sent <- pcb.stats.bytes_sent + payload_len;
  pcb.rcv_adv <- Tcp_seq.add pcb.rcv_nxt (rcv_space pcb);
  pcb.ack_pending <- false;
  pcb.need_ack_now <- false;
  cancel_delack pcb;
  if csum_cost > 0 then
    (* The host checksum pass is charged to whoever is running on the
       owning shard's CPU (process context on writes, interrupt on
       ack-driven sends). *)
    Host.in_intr_on pcb.tcp.hst ~shard:pcb.shard ~site:Cpu.Checksum
      csum_cost (fun () -> ip_send pcb seg)
  else ip_send pcb seg;
  Sent

(* Build and emit one segment.  [payload] ownership transfers here.  The
   transport checksum either rides out as an offload record (seed in the
   field) or is computed on the host, which costs a CPU charge before
   the segment reaches IP. *)
let emit pcb ~seq ~flags ~options ~(payload : Mbuf.t option) =
  match Ipv4.route_for pcb.tcp.ip ~dst:pcb.raddr with
  | None ->
      (match payload with Some p -> Mbuf.free p | None -> ());
      No_route
  | Some (iface, _next_hop) ->
      let hdr_len = Tcp_header.base_size + Tcp_header.options_size options in
      let payload_len =
        match payload with Some p -> Mbuf.chain_len p | None -> 0
      in
      let seg_len = hdr_len + payload_len in
      (* Encode the header (checksum field zero) into [hbytes]: the
         per-connection template patched in place on the optionless
         steady-state path, a fresh record + encode only when options
         are present (SYN segments). *)
      let hbytes =
        if options = [] then begin
          let b = pcb.tpl in
          Bytes.set_int32_be b 4 (Int32.of_int (seq land 0xffffffff));
          Bytes.set_int32_be b 8 (Int32.of_int (pcb.rcv_nxt land 0xffffffff));
          Bytes.set_uint8 b 13 (Tcp_header.flag_bits flags);
          Bytes.set_uint16_be b 14 (window_field pcb);
          Bytes.set_uint16_be b 16 0;
          b
        end
        else
          encode_header ~hdr_len ~flags ~window:(window_field pcb) ~options
            ~src_port:pcb.lport ~dst_port:pcb.rport ~seq ~ack:pcb.rcv_nxt
      in
      (* Incremental seed: cached pseudo-header base plus this segment's
         length word. *)
      let pseudo = Inet_csum.add_u16 pcb.csum_base seg_len in
      match payload with
      | Some _ when iface.Netif.single_copy ->
          pcb.stats.csum_offloaded_tx <- pcb.stats.csum_offloaded_tx + 1;
          let record =
            Csum_offload.make_tx ~csum_offset:Tcp_header.csum_field_offset
              ~skip_bytes:0 ~seed:pseudo
          in
          let field = Inet_csum.fold pseudo land 0xffff in
          Obs_trace.emit Obs_trace.Seed_compute ~a:seg_len ~b:field;
          Bytes.set_uint16_be hbytes Tcp_header.csum_field_offset field;
          let seg = build_seg hbytes hdr_len payload in
          (match seg.Mbuf.pkthdr with
          | Some ph -> ph.Mbuf.tx_csum <- Some record
          | None -> assert false);
          send_segment pcb seg ~payload_len ~csum_cost:0
      | Some p
        when Mbuf.fold (fun acc mb -> acc || Mbuf.kind mb = Mbuf.K_wcab) false p
        ->
          (* Outboard data routed at a device that cannot checksum or read
             it: the stack cannot transmit this segment (§6 note). *)
          Mbuf.free p;
          pcb.stats.dropped_wcab_legacy <- pcb.stats.dropped_wcab_legacy + 1;
          Outboard_on_legacy
      | Some _ | None ->
          pcb.stats.csum_host_tx <- pcb.stats.csum_host_tx + 1;
          let payload_sum =
            match payload with
            | None -> Inet_csum.zero
            | Some p ->
                Obs_ledger.touch Obs_ledger.Tcp_tx_csum Obs_ledger.Sum
                  payload_len;
                Mbuf.checksum p ~off:0 ~len:payload_len
          in
          let csum_cost =
            (* The checksum pass usually runs right after the socket
               layer's copy of the same bytes, so the segment is
               cache-warm when the recently-copied working set (the app
               buffer + kernel copy) fits; streaming very large writes
               stays cold. *)
            Memcost.checksum_read pcb.tcp.hst.Host.profile
              ~locality:(Memcost.Working_set pcb.ws_hint_tx)
              payload_len
          in
          set_host_csum hbytes hdr_len ~pseudo payload_sum;
          let seg = build_seg hbytes hdr_len payload in
          send_segment pcb seg ~payload_len ~csum_cost

(* ---------- connection teardown plumbing ---------- *)

let remove_pcb pcb =
  let tcp = pcb.tcp in
  let tab = tcp.tabs.(pcb.shard) in
  let ka = key_a ~lport:pcb.lport ~rport:pcb.rport
  and kb = Flow_hash.addr_bits pcb.raddr in
  (* Only remove our own entry: a 4-tuple reopened while this pcb sat in
     time-wait has replaced it in the table (the assoc list used to
     shadow it the same way). *)
  (match Flowtab.find tab ~hash:pcb.flow_hash ~ka ~kb with
  | Some p when p == pcb -> Flowtab.remove tab ~hash:pcb.flow_hash ~ka ~kb
  | Some _ | None -> ());
  cancel_rexmt pcb;
  cancel_delack pcb;
  cancel_persist pcb;
  Sim.stop (sim_of pcb) pcb.time_wait_timer;
  Sim.stop (sim_of pcb) pcb.keep_timer;
  Tcp_sendq.clear pcb.sendq;
  List.iter Mbuf.free pcb.rcvq;
  pcb.rcvq <- [];
  pcb.rcvq_len <- 0

let to_closed pcb =
  if pcb.st <> Closed then begin
    pcb.st <- Closed;
    remove_pcb pcb;
    pcb.on_closed ()
  end

let enter_time_wait pcb =
  pcb.st <- Time_wait;
  cancel_rexmt pcb;
  Sim.rearm (sim_of pcb) pcb.time_wait_timer (2 * pcb.tcp.cfg.msl)

(* ---------- retransmission timer ---------- *)

(* Connection-setup latency: pcb creation (connect's SYN / the
   listener's SYN arrival) to ESTABLISHED.  Observed at most once. *)
let observe_conn_setup pcb =
  if pcb.setup_t0 >= 0 then begin
    Obs.Histogram.observe Obs_lat.conn_setup_ns
      (Simtime.sub (Sim.now pcb.tcp.hst.Host.sim) pcb.setup_t0);
    pcb.setup_t0 <- -1
  end

let update_rtt pcb sample =
  Obs.Histogram.observe Obs_lat.rtt_ns sample;
  if pcb.srtt = 0 then begin
    pcb.srtt <- sample;
    pcb.rttvar <- sample / 2
  end
  else begin
    let err = sample - pcb.srtt in
    pcb.srtt <- pcb.srtt + (err / 8);
    pcb.rttvar <- pcb.rttvar + ((abs err - pcb.rttvar) / 4)
  end;
  let rto = pcb.srtt + (4 * pcb.rttvar) in
  pcb.rto <- max rto_min (min rto_max rto)

let plan_none = 0
let plan_fin = -1

let rec arm_rexmt pcb = Sim.rearm (sim_of pcb) pcb.rexmt_timer pcb.rto

and rto_fire pcb =
  match pcb.st with
  | Established | Fin_wait_1 | Closing | Close_wait | Last_ack | Syn_sent ->
      pcb.rexmt_shift <- pcb.rexmt_shift + 1;
      if pcb.rexmt_shift > max_rexmt then begin
        (* The peer is unreachable: give up (BSD drops with ETIMEDOUT),
           telling the peer with a best-effort RST so its readers see the
           reset rather than hanging. *)
        send_control pcb ~flags:[ Tcp_header.RST; Tcp_header.ACK ] ();
        to_closed pcb
      end
      else begin
      pcb.stats.rto_fires <- pcb.stats.rto_fires + 1;
      pcb.stats.retransmits <- pcb.stats.retransmits + 1;
      Obs.Counter.incr agg_rto_fires;
      Obs.Counter.incr agg_retransmits;
      (* Back off, rewind, and resend (go-back-N; Karn: discard timing). *)
      pcb.rto <- min rto_max (2 * pcb.rto);
      pcb.rtt_t0 <- -1;
      pcb.wr_t0 <- -1;
      if pcb.st = Syn_sent then begin
        pcb.snd_nxt <- pcb.iss;
        send_control pcb ~flags:[ Tcp_header.SYN ] ()
      end
      else begin
        pcb.snd_nxt <- pcb.snd_una;
        pcb.fin_sent <- false;
        (* RTO-driven retransmission: profile as timer machinery. *)
        pump pcb ~intr:true ~site:Cpu.Timer
      end
      end
  | Closed | Fin_wait_2 | Time_wait -> ()

(* ---------- output pump (tcp_output) ---------- *)

and send_control pcb ~flags () =
  let is_syn = List.mem Tcp_header.SYN flags in
  let is_fin = List.mem Tcp_header.FIN flags in
  let seq = pcb.snd_nxt in
  let options =
    if is_syn then
      [ Tcp_header.Mss pcb.mss_val;
        Tcp_header.Window_scale (wanted_wscale pcb.tcp.cfg) ]
    else
      match pcb.rx_cost_pending with
      | Some hint ->
          pcb.rx_cost_pending <- None;
          [ hint ]
      | None -> []
  in
  let flags =
    if is_syn || pcb.st = Syn_sent then flags
    else if List.mem Tcp_header.ACK flags then flags
    else Tcp_header.ACK :: flags
  in
  (match emit pcb ~seq ~flags ~options ~payload:None with
  | Sent ->
      if is_syn || is_fin then begin
        pcb.snd_nxt <- Tcp_seq.add pcb.snd_nxt 1;
        pcb.snd_max <- Tcp_seq.max pcb.snd_max pcb.snd_nxt;
        if not (Sim.armed pcb.rexmt_timer) then arm_rexmt pcb
      end
  | No_route | Outboard_on_legacy -> ())

and send_ack_now pcb = send_control pcb ~flags:[ Tcp_header.ACK ] ()

(* Decide the next data transmission, if any, without mutating state.
   The plan is an int so that deciding allocates nothing: [plan_none],
   [plan_fin], or a data length [len > 0] starting at offset
   [snd_nxt - snd_una] of the send queue. *)
and decide pcb =
  (* LAST_ACK stays sendable: an RTO rewinds [snd_nxt] over an unacked
     FIN, and only this plan resends it. *)
  let sendable =
    match pcb.st with
    | Established | Close_wait | Fin_wait_1 | Closing | Last_ack -> true
    | Closed | Syn_sent | Fin_wait_2 | Time_wait -> false
  in
  if not sendable then plan_none
  else begin
    let off = Tcp_seq.diff pcb.snd_nxt pcb.snd_una in
    let qlen = Tcp_sendq.length pcb.sendq in
    let available = qlen - off in
    let usable_window = pcb.snd_wnd - off in
    let len = min (min available usable_window) pcb.mss_val in
    if len > 0 then begin
      (* Single-copy path: do not span a descriptor-chain boundary, and
         bypass Nagle for descriptor data.  The bypass only applies when
         descriptors are NOT coalesced: there a sub-MSS tail can never
         merge with the next write's bytes (the extent is clamped at the
         descriptor boundary), and holding it would block the writer's
         copy-semantics notify on the peer's delayed ACK.  With
         coalescing on, Nagle holding the tail is exactly what lets the
         next write's append merge it into a full segment. *)
      let kind, extent = Tcp_sendq.homogeneous_extent pcb.sendq ~off in
      let descriptor =
        (not pcb.tcp.cfg.coalesce_descriptors)
        &&
        match kind with
        | Mbuf.K_uio | Mbuf.K_wcab -> true
        | Mbuf.K_internal | Mbuf.K_cluster -> false
      in
      (* Never mix descriptor and regular storage in one packet: the
         scatter base would lose word alignment at the driver. *)
      let len =
        if pcb.tcp.cfg.coalesce_descriptors then len else min len extent
      in
      let inflight = off > 0 in
      let send_now =
        len >= pcb.mss_val
        || descriptor
        || (not inflight)
        || (pcb.fin_pending && available = len)
      in
      if send_now && len > 0 then len else plan_none
    end
    else if
      pcb.fin_pending && (not pcb.fin_sent) && available = 0
      && Tcp_seq.diff pcb.snd_nxt pcb.snd_una <= usable_window
    then plan_fin
    else plan_none
  end

and transmit_plan pcb plan =
  match plan with
  | len when len > 0 ->
      let off = Tcp_seq.diff pcb.snd_nxt pcb.snd_una in
      let payload = Tcp_sendq.range pcb.sendq ~off ~len in
      let seq = pcb.snd_nxt in
      Obs_trace.emit Obs_trace.Packetize ~a:(seq : Tcp_seq.t :> int) ~b:len;
      let retransmit = Tcp_seq.lt seq pcb.snd_max in
      if retransmit then begin
        pcb.stats.retransmits <- pcb.stats.retransmits + 1;
        Obs.Counter.incr agg_retransmits;
        if List.mem Mbuf.K_wcab (Mbuf.chain_kinds payload) then
          pcb.stats.wcab_retransmit_hits <- pcb.stats.wcab_retransmit_hits + 1
      end;
      (* Arrange the M_UIO -> M_WCAB swap once the driver has the data
         outboard (§4.2). *)
      (match payload.Mbuf.pkthdr with
      | Some ph when pcb.single_copy ->
          ph.Mbuf.on_outboard <-
            Some
              (fun desc ->
                let qoff = Tcp_seq.diff seq pcb.snd_una in
                (* The descriptor covers only what the driver put behind
                   its host-readable prefix: with coalesced inline bytes
                   ahead of it that is less than the segment, and mapping
                   the segment onto it would name the wrong bytes. *)
                if
                  qoff >= 0
                  && qoff + len <= Tcp_sendq.length pcb.sendq
                  && desc.Mbuf.wcab_valid = len
                  && not (Tcp_sendq.all_wcab pcb.sendq ~off:qoff ~len)
                then begin
                  let wm = Mbuf.make_wcab ~desc ~len in
                  Tcp_sendq.replace pcb.sendq ~off:qoff ~len wm;
                  pcb.stats.wcab_converted <- pcb.stats.wcab_converted + 1
                end
                else desc.Mbuf.wcab_free ())
      | Some _ | None -> ());
      let fin_here =
        pcb.fin_pending
        && off + len = Tcp_sendq.length pcb.sendq
        && not pcb.fin_sent
      in
      let flags =
        if fin_here then [ Tcp_header.ACK; Tcp_header.FIN ]
        else if off + len = Tcp_sendq.length pcb.sendq then
          [ Tcp_header.ACK; Tcp_header.PSH ]
        else [ Tcp_header.ACK ]
      in
      (match emit pcb ~seq ~flags ~options:[] ~payload:(Some payload) with
      | Sent ->
          pcb.snd_nxt <- Tcp_seq.add pcb.snd_nxt len;
          if fin_here then begin
            pcb.fin_sent <- true;
            pcb.snd_nxt <- Tcp_seq.add pcb.snd_nxt 1;
            advance_state_on_fin_sent pcb
          end;
          if Tcp_seq.gt pcb.snd_nxt pcb.snd_max then begin
            (* New data: start RTT timing if idle. *)
            if pcb.rtt_t0 < 0 then begin
              pcb.rtt_seq <- pcb.snd_nxt;
              pcb.rtt_t0 <- Sim.now pcb.tcp.hst.Host.sim
            end
          end;
          pcb.snd_max <- Tcp_seq.max pcb.snd_max pcb.snd_nxt;
          if not (Sim.armed pcb.rexmt_timer) then arm_rexmt pcb
      | Outboard_on_legacy ->
          (* The route moved to a device that cannot read outboard data
             (§4.1's "stack switch" hazard): copy the range back from
             network memory into regular mbufs and let the pump retry.
             A real driver would SDMA it back; the CPU-copy cost charged
             by the pump's next pass is a safe overestimate. *)
          rescue_outboard pcb ~off ~len
      | No_route -> ())
  | _ when plan = plan_fin ->
      pcb.fin_sent <- true;
      send_control pcb ~flags:[ Tcp_header.FIN; Tcp_header.ACK ] ();
      advance_state_on_fin_sent pcb
  | _ -> ()

and rescue_outboard pcb ~off ~len =
  let chain = Tcp_sendq.range pcb.sendq ~off ~len in
  Obs_ledger.touch Obs_ledger.Tcp_flatten Obs_ledger.Copy len;
  let buf = Bytes.create len in
  Mbuf.copy_into_raw chain ~off:0 ~len buf ~dst_off:0;
  Mbuf.free chain;
  Tcp_sendq.replace pcb.sendq ~off ~len (Mbuf.of_bytes buf)

and advance_state_on_fin_sent pcb =
  match pcb.st with
  | Established -> pcb.st <- Fin_wait_1
  | Close_wait -> pcb.st <- Last_ack
  | _ -> ()

(* The single transmission pump: serializes per-packet CPU charging and
   segment emission.  [intr] selects interrupt-context charging (ACK- and
   timer-driven sends) versus process context ([proc]).  A pump already
   running keeps its own context. *)
and pump ?(proc = "kernel") ?(intr = false) ?(site = Cpu.Header) pcb =
  if not pcb.pumping then begin
    pcb.pumping <- true;
    pcb.pump_proc <- proc;
    pcb.pump_intr <- intr;
    pcb.pump_site <- site;
    pump_next pcb
  end

(* Charge one segment's per-packet cost; [pump_k] then transmits it. *)
and pump_next pcb =
  if decide pcb = plan_none then begin
    pcb.pumping <- false;
    (* A standalone window-update / delayed ACK might still be owed. *)
    if pcb.need_ack_now then send_ack_now pcb
  end
  else begin
    let cost = Memcost.per_packet pcb.tcp.hst.Host.profile in
    (* Explicit shard: timer-driven pumps run outside any shard
       context, so inheritance would misattribute them. *)
    if pcb.pump_intr then
      Host.in_intr_on pcb.tcp.hst ~shard:pcb.shard ~site:pcb.pump_site cost
        pcb.pump_k
    else
      Host.in_proc_on pcb.tcp.hst ~shard:pcb.shard ~proc:pcb.pump_proc
        ~site:pcb.pump_site cost pcb.pump_k
  end

and pump_step pcb =
  let plan = decide pcb in
  if plan <> plan_none then transmit_plan pcb plan;
  pump_next pcb

(* ---------- persist (zero-window probe) ---------- *)

(* A real window probe: one byte of data beyond the advertised window.
   The peer must ACK it (with its current window), so a lost window
   update cannot deadlock the connection.  Rearms with backoff while the
   window stays closed. *)
let rec arm_persist pcb =
  if not (Sim.armed pcb.persist_timer) then begin
    let delay = max pcb.rto (Simtime.ms 10.) in
    Sim.rearm (sim_of pcb) pcb.persist_timer delay
  end

and persist_fire pcb =
  let off = Tcp_seq.diff pcb.snd_nxt pcb.snd_una in
  if pcb.snd_wnd = 0 && Tcp_sendq.length pcb.sendq > off then begin
    let payload = Tcp_sendq.range pcb.sendq ~off ~len:1 in
    (match
       emit pcb ~seq:pcb.snd_nxt ~flags:[ Tcp_header.ACK ] ~options:[]
         ~payload:(Some payload)
     with
    | Sent ->
        pcb.snd_nxt <- Tcp_seq.add pcb.snd_nxt 1;
        pcb.snd_max <- Tcp_seq.max pcb.snd_max pcb.snd_nxt
    | No_route | Outboard_on_legacy -> ());
    arm_persist pcb
  end

(* ---------- receive-side checksum verification ---------- *)

(* Pseudo-header sum of a connection without the length: it is
   commutative in src/dst, so one base serves transmit and receive. *)
let pseudo_base ~laddr ~raddr =
  Inet_csum.pseudo_header ~src:laddr ~dst:raddr ~proto:Ipv4_header.proto_tcp
    ~len:0

(* A receive-checksum verdict is one int, so verifying allocates
   nothing: [csum_bad], [csum_hw] (verified by the adaptor, no host
   cost), or the host cost [>= 0] of a good host-verified sum. *)
let csum_bad = -1
let csum_hw = -2
let csum_cost_of v = if v > 0 then v else 0

(* Verify a received segment against pseudo-header [base], charging a
   host sum at receive working set [ws_hint] when no hardware checksum
   rode in with the packet. *)
let verify_rx_csum tcp ~base ~ws_hint seg =
  let seg_len = Mbuf.pkt_len seg in
  let pseudo = Inet_csum.add_u16 base seg_len in
  let v =
    match seg.Mbuf.pkthdr with
    | Some { Mbuf.rx_csum = Some rx; _ } ->
        (* Hardware path: add back the transport bytes the engine skipped
           (engine start is relative to this segment after lower layers
           adjusted it). *)
        let skipped_len = max 0 rx.Csum_offload.rx_start in
        let skipped =
          if skipped_len = 0 then Inet_csum.zero
          else begin
            Obs_ledger.touch Obs_ledger.Tcp_rx_csum Obs_ledger.Sum
              (min skipped_len seg_len);
            Mbuf.checksum seg ~off:0 ~len:(min skipped_len seg_len)
          end
        in
        Obs_trace.emit Obs_trace.Rx_adjust ~a:seg_len ~b:skipped_len;
        if Csum_offload.rx_verify rx ~skipped ~pseudo then csum_hw else csum_bad
    | Some _ | None ->
        Obs_ledger.touch Obs_ledger.Tcp_rx_csum Obs_ledger.Sum seg_len;
        let sum = Mbuf.checksum seg ~off:0 ~len:seg_len in
        let cost =
          Memcost.checksum_read tcp.hst.Host.profile
            ~locality:(Memcost.Working_set ws_hint) seg_len
        in
        if Inet_csum.is_valid (Inet_csum.add pseudo sum) then cost else csum_bad
  in
  if v = csum_bad then Obs.Counter.incr agg_csum_failures_rx;
  v

let verify_checksum pcb seg =
  let v =
    verify_rx_csum pcb.tcp ~base:pcb.csum_base ~ws_hint:pcb.ws_hint_rx seg
  in
  let s = pcb.stats in
  if v = csum_bad then s.csum_failures_rx <- s.csum_failures_rx + 1
  else if v = csum_hw then s.csum_hw_verified_rx <- s.csum_hw_verified_rx + 1
  else s.csum_host_verified_rx <- s.csum_host_verified_rx + 1;
  v

(* A received segment's interrupt charge, for a pcb and a handshake
   alike: the per-packet cost (an ACK's when there is no payload) plus
   the host checksum of verdict [v], then [k]. *)
let charge_rx tcp ~shard ~payload_len v k =
  let csum_cost = csum_cost_of v in
  let base_cost =
    if payload_len > 0 then Memcost.per_packet tcp.hst.Host.profile
    else Memcost.ack tcp.hst.Host.profile
  in
  Host.in_intr_on tcp.hst ~shard ~site:Cpu.Header ~csum:csum_cost
    (base_cost + csum_cost) k

(* ---------- ack policy on data receipt ---------- *)

let schedule_ack pcb =
  if pcb.need_ack_now then begin
    cancel_delack pcb;
    pcb.ack_pending <- false;
    send_ack_now pcb
  end
  else if pcb.ack_pending then begin
    (* Second data segment: ACK every other (BSD delack policy). *)
    cancel_delack pcb;
    pcb.ack_pending <- false;
    send_ack_now pcb
  end
  else begin
    pcb.ack_pending <- true;
    Sim.rearm (sim_of pcb) pcb.delack_timer delack_delay
  end

let delack_fire pcb =
  if pcb.ack_pending then begin
    pcb.ack_pending <- false;
    send_ack_now pcb
  end

(* ---------- keepalive (idle-flow reaping) ---------- *)

(* Refresh the idle timer and forget probe history.  One compare when
   the feature is off (keepalive_idle = 0, the default): the legacy fast
   path pays a single branch per received segment. *)
let keepalive_touch pcb =
  if pcb.tcp.cfg.keepalive_idle > 0 then begin
    pcb.keep_probes <- 0;
    match pcb.st with
    | Established | Close_wait | Fin_wait_1 | Fin_wait_2 ->
        Sim.rearm (sim_of pcb) pcb.keep_timer pcb.tcp.cfg.keepalive_idle
    | _ -> ()
  end

let keep_fire pcb =
  match pcb.st with
  | Established | Close_wait | Fin_wait_1 | Fin_wait_2 ->
      if pcb.keep_probes >= pcb.tcp.cfg.keepalive_probes then begin
        (* The peer stopped answering: reap the flow so idle state stays
           bounded (best-effort RST, BSD's ETIMEDOUT drop). *)
        Obs.Counter.incr conn_keepalive_drops;
        send_control pcb ~flags:[ Tcp_header.RST; Tcp_header.ACK ] ();
        to_closed pcb
      end
      else begin
        pcb.keep_probes <- pcb.keep_probes + 1;
        Obs.Counter.incr conn_keepalive_probes;
        (* Classic probe: a bare ACK one byte below snd_nxt — already
           acknowledged sequence space, so a live peer must answer. *)
        ignore
          (emit pcb
             ~seq:(Tcp_seq.add pcb.snd_nxt (-1))
             ~flags:[ Tcp_header.ACK ] ~options:[] ~payload:None);
        Sim.rearm (sim_of pcb) pcb.keep_timer pcb.tcp.cfg.keepalive_intvl
      end
  | _ -> ()

(* ---------- input processing ---------- *)

let deliver_data pcb chain len =
  pcb.rcvq <- pcb.rcvq @ [ chain ];
  pcb.rcvq_len <- pcb.rcvq_len + len;
  pcb.stats.bytes_rcvd <- pcb.stats.bytes_rcvd + len

let process_ack pcb (hdr : Tcp_header.t) =
  let ack = hdr.Tcp_header.ack in
  if Tcp_seq.gt ack pcb.snd_max then (* ack of unsent data *) ()
  else if Tcp_seq.le ack pcb.snd_una then begin
    (* Duplicate ACK. *)
    if
      Tcp_seq.diff ack pcb.snd_una = 0
      && Tcp_sendq.length pcb.sendq > 0
      && pcb.snd_wnd > 0
    then begin
      pcb.dupacks <- pcb.dupacks + 1;
      pcb.stats.dup_acks <- pcb.stats.dup_acks + 1;
      (* Fast retransmit: resend exactly the missing segment, once per
         window of loss (the [recover] guard prevents a dup-ACK storm from
         triggering a retransmission cascade). *)
      if pcb.dupacks = 3 && Tcp_seq.ge pcb.snd_una pcb.recover then begin
        pcb.stats.fast_retransmits <- pcb.stats.fast_retransmits + 1;
        Obs.Counter.incr agg_fast_retransmits;
        pcb.recover <- pcb.snd_max;
        pcb.rtt_t0 <- -1;
        pcb.wr_t0 <- -1;
        let old_nxt = pcb.snd_nxt in
        pcb.snd_nxt <- pcb.snd_una;
        let plan = decide pcb in
        if plan <> plan_none then transmit_plan pcb plan;
        pcb.snd_nxt <- Tcp_seq.max pcb.snd_nxt old_nxt
      end
    end
  end
  else begin
    let acked = Tcp_seq.diff ack pcb.snd_una in
    pcb.dupacks <- 0;
    pcb.rexmt_shift <- 0;
    pcb.stats.acks_rcvd <- pcb.stats.acks_rcvd + 1;
    (* RTT sample (Karn: only if the timed segment is covered and was not
       retransmitted — timing is dropped on retransmit). *)
    if pcb.rtt_t0 >= 0 && Tcp_seq.ge ack pcb.rtt_seq then begin
      update_rtt pcb (Simtime.sub (Sim.now pcb.tcp.hst.Host.sim) pcb.rtt_t0);
      pcb.rtt_t0 <- -1
    end;
    (* Write-to-ACK latency, same Karn discipline. *)
    if pcb.wr_t0 >= 0 && Tcp_seq.ge ack pcb.wr_seq then begin
      Obs.Histogram.observe Obs_lat.write_ack_ns
        (Simtime.sub (Sim.now pcb.tcp.hst.Host.sim) pcb.wr_t0);
      pcb.wr_t0 <- -1
    end;
    (* Release acknowledged data; the SYN/FIN occupy sequence space but not
       queue space. *)
    let data_acked = min acked (Tcp_sendq.length pcb.sendq) in
    if data_acked > 0 then Tcp_sendq.drop pcb.sendq data_acked;
    pcb.snd_una <- ack;
    if Tcp_seq.lt pcb.snd_nxt pcb.snd_una then pcb.snd_nxt <- pcb.snd_una;
    if Tcp_seq.diff pcb.snd_max pcb.snd_una = 0 then cancel_rexmt pcb
    else arm_rexmt pcb;
    pcb.on_sendable ()
  end

let update_send_window pcb (hdr : Tcp_header.t) seg_seq =
  let new_wnd = hdr.Tcp_header.window lsl pcb.snd_wscale in
  if
    Tcp_seq.gt seg_seq pcb.snd_wl1
    || (Tcp_seq.diff seg_seq pcb.snd_wl1 = 0
        && Tcp_seq.ge hdr.Tcp_header.ack pcb.snd_wl2)
  then begin
    let opened = new_wnd > pcb.snd_wnd in
    pcb.snd_wnd <- new_wnd;
    pcb.snd_wl1 <- seg_seq;
    pcb.snd_wl2 <- hdr.Tcp_header.ack;
    if pcb.snd_wnd = 0 then arm_persist pcb else cancel_persist pcb;
    if opened then pump pcb ~intr:true
  end

(* The peer's SYN options, folded without allocating: the smallest MSS
   offered (at most [mss]) and the last window shift offered ([w] when
   none). *)
let rec syn_mss mss = function
  | [] -> mss
  | Tcp_header.Mss m :: rest -> syn_mss (min mss m) rest
  | (Tcp_header.Window_scale _ | Tcp_header.Rx_cost _) :: rest ->
      syn_mss mss rest

let rec syn_wscale w = function
  | [] -> w
  | Tcp_header.Window_scale s :: rest -> syn_wscale s rest
  | (Tcp_header.Mss _ | Tcp_header.Rx_cost _) :: rest -> syn_wscale w rest

(* The one transition into ESTABLISHED, for the active open's SYN-ACK and
   the listener's promotion alike: the peer's ISN, its folded MSS and
   window shift ([wscale] -1 = not offered), the send window from the
   segment that completed the handshake, and the setup sample. *)
let handshake_done pcb ~irs ~mss ~wscale (hdr : Tcp_header.t) =
  pcb.rcv_nxt <- Tcp_seq.add irs 1;
  pcb.mss_val <- min pcb.mss_val mss;
  if wscale >= 0 then begin
    pcb.snd_wscale <- wscale;
    pcb.rcv_wscale <- wanted_wscale pcb.tcp.cfg
  end;
  pcb.snd_una <- hdr.Tcp_header.ack;
  (* An RTO may have rewound snd_nxt below the ack (go-back-N rewind
     raced the in-flight handshake reply). *)
  if Tcp_seq.lt pcb.snd_nxt pcb.snd_una then pcb.snd_nxt <- pcb.snd_una;
  pcb.snd_max <- Tcp_seq.max pcb.snd_max pcb.snd_nxt;
  pcb.snd_wnd <- hdr.Tcp_header.window lsl pcb.snd_wscale;
  pcb.snd_wl1 <- hdr.Tcp_header.seq;
  pcb.snd_wl2 <- hdr.Tcp_header.ack;
  pcb.st <- Established;
  observe_conn_setup pcb

let apply_rx_cost_options pcb (hdr : Tcp_header.t) =
  match hdr.Tcp_header.options with
  | [] -> ()
  | opts ->
      List.iter
        (fun o ->
          match o with
          | Tcp_header.Rx_cost { bucket; uio_us; copy_us } -> (
              match pcb.on_rx_cost with
              | Some f -> f ~bucket ~uio_us ~copy_us
              | None -> ())
          | Tcp_header.Mss _ | Tcp_header.Window_scale _ -> ())
        opts

(* Handle an in-window data payload (chain trimmed to payload only). *)
let rec process_data pcb ~seq chain =
  let len = Mbuf.chain_len chain in
  if len = 0 then begin
    Mbuf.free chain;
    (* An empty segment from old sequence space is a keepalive probe (or
       a stale duplicate): answer it so the prober sees life.  In-order
       pure ACKs carry [seq = rcv_nxt] and stay on the free-only path. *)
    if Tcp_seq.lt seq pcb.rcv_nxt then begin
      pcb.need_ack_now <- true;
      schedule_ack pcb
    end
  end
  else begin
    let d = Tcp_seq.diff seq pcb.rcv_nxt in
    if d = 0 then begin
      deliver_data pcb chain len;
      pcb.rcv_nxt <- Tcp_seq.add pcb.rcv_nxt len;
      (* Pull anything now-contiguous out of reassembly. *)
      List.iter
        (fun (c, l) ->
          deliver_data pcb c l;
          pcb.rcv_nxt <- Tcp_seq.add pcb.rcv_nxt l)
        (Tcp_reasm.take pcb.reasm ~rcv_nxt:pcb.rcv_nxt);
      pcb.on_readable ();
      schedule_ack pcb
    end
    else if d < 0 then begin
      (* Partially or fully duplicate segment. *)
      if len + d <= 0 then begin
        Mbuf.free chain;
        pcb.need_ack_now <- true;
        schedule_ack pcb
      end
      else begin
        Mbuf.adj_head chain (-d);
        process_data pcb ~seq:pcb.rcv_nxt chain
      end
    end
    else begin
      (* Out of order: stash and demand an immediate ACK (dup ACK). *)
      Tcp_reasm.insert pcb.reasm ~rcv_nxt:pcb.rcv_nxt ~seq chain;
      pcb.need_ack_now <- true;
      schedule_ack pcb
    end
  end

(* Full per-segment state machine, run inside a charged interrupt work
   item. *)
let segment_arrived pcb (hdr : Tcp_header.t) chain =
  pcb.stats.segs_rcvd <- pcb.stats.segs_rcvd + 1;
  keepalive_touch pcb;
  apply_rx_cost_options pcb hdr;
  let seq = hdr.Tcp_header.seq in
  let has f = Tcp_header.has f hdr in
  if has Tcp_header.RST then begin
    Mbuf.free chain;
    match pcb.st with
    | Syn_sent | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
    | Last_ack ->
        to_closed pcb
    | Closed | Time_wait -> ()
  end
  else
    match pcb.st with
    | Syn_sent ->
        if has Tcp_header.SYN && has Tcp_header.ACK then begin
          let opts = hdr.Tcp_header.options in
          handshake_done pcb ~irs:seq ~mss:(syn_mss max_int opts)
            ~wscale:(syn_wscale (-1) opts) hdr;
          cancel_rexmt pcb;
          keepalive_touch pcb;
          Mbuf.free chain;
          send_ack_now pcb;
          pcb.on_established ();
          pump pcb ~intr:true
        end
        else Mbuf.free chain
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing
    | Last_ack | Time_wait ->
        if has Tcp_header.SYN then begin
          (* Duplicate handshake segment in a synchronized state: our
             handshake ACK was lost (rx overrun), so the peer's listener
             is still retransmitting its SYN-ACK.  Re-ACK so it can come
             up (RFC 793's "an acceptable reset... otherwise ACK"). *)
          pcb.need_ack_now <- true;
          schedule_ack pcb
        end;
        if has Tcp_header.ACK then begin
          process_ack pcb hdr;
          update_send_window pcb hdr seq
        end;
        (* FIN processing: it occupies one sequence number after the
           data. *)
        let data_len = Mbuf.chain_len chain in
        let fin = has Tcp_header.FIN in
        (match pcb.st with
        | Close_wait | Closing | Last_ack | Time_wait ->
            (* No new data expected. *)
            Mbuf.free chain;
            if fin then begin
              pcb.need_ack_now <- true;
              schedule_ack pcb
            end
        | _ ->
            process_data pcb ~seq chain;
            if fin && Tcp_seq.diff (Tcp_seq.add seq data_len) pcb.rcv_nxt = 0
            then begin
              pcb.rcv_nxt <- Tcp_seq.add pcb.rcv_nxt 1;
              pcb.need_ack_now <- true;
              schedule_ack pcb;
              (match pcb.st with
              | Established -> pcb.st <- Close_wait
              | Fin_wait_1 ->
                  (* Simultaneous close or our FIN acked? *)
                  if Tcp_seq.diff pcb.snd_una pcb.snd_max = 0 then
                    enter_time_wait pcb
                  else pcb.st <- Closing
              | Fin_wait_2 -> enter_time_wait pcb
              | _ -> ());
              pcb.on_readable () (* EOF visible to reader *)
            end);
        (* Our FIN acknowledged? *)
        (match pcb.st with
        | Fin_wait_1 when pcb.fin_sent
                          && Tcp_seq.diff pcb.snd_una pcb.snd_max = 0 ->
            pcb.st <- Fin_wait_2
        | Closing when Tcp_seq.diff pcb.snd_una pcb.snd_max = 0 ->
            enter_time_wait pcb
        | Last_ack when Tcp_seq.diff pcb.snd_una pcb.snd_max = 0 ->
            to_closed pcb
        | _ -> ());
        (* Keep the pipe full. *)
        pump pcb ~intr:true
    | Closed -> Mbuf.free chain

(* ---------- demux and pcb creation ---------- *)

(* Advance by the classic 64000 plus a flow-salted pseudo-random offset:
   a 4-tuple reopened while its predecessor sits in time-wait starts
   outside the old sequence range instead of a predictable 64000 ahead.
   Sequence numbers never influence event timing, so this does not
   perturb the deterministic traces.  The listener draws at SYN arrival
   (the same stream point where the old code built its pcb), then passes
   the value into [make_pcb ~iss] at promotion. *)
let draw_iss tcp ~flow_hash =
  let iss = tcp.next_iss in
  tcp.next_iss <-
    Tcp_seq.norm
      (tcp.next_iss + 64000
      + ((flow_hash lxor Rng.int tcp.iss_rng 0x40000000) land 0xffff));
  iss

let make_pcb ?iss tcp ~local_addr ~lport ~raddr ~rport =
  let flow_hash = Flow_hash.hash ~raddr ~lport ~rport in
  let shard = Flow_hash.shard ~count:tcp.shard_count flow_hash in
  let iss =
    match iss with Some i -> i | None -> draw_iss tcp ~flow_hash
  in
  (* Preencode the connection-constant header fields; seq/ack/flags/
     window/checksum are patched per segment (urgent stays 0). *)
  let tpl = Bytes.make Tcp_header.base_size '\000' in
  Bytes.set_uint16_be tpl 0 lport;
  Bytes.set_uint16_be tpl 2 rport;
  Bytes.set_uint8 tpl 12 ((Tcp_header.base_size / 4) lsl 4);
  let route = Ipv4.route_for tcp.ip ~dst:raddr in
  let pcb =
    {
      tcp;
      st = Closed;
      local_addr;
      lport;
      raddr;
      rport;
      flow_hash;
      shard;
      iss;
      snd_una = iss;
      snd_nxt = iss;
      snd_max = iss;
      snd_wnd = 0;
      snd_wl1 = 0;
      snd_wl2 = 0;
      snd_wscale = 0;
      sendq = Tcp_sendq.create ~hiwat:tcp.cfg.snd_buf;
      fin_pending = false;
      fin_sent = false;
      rcv_nxt = 0;
      rcv_adv = 0;
      rcv_wscale = 0;
      rcvq = [];
      rcvq_len = 0;
      reasm = Tcp_reasm.create ();
      mss_val = route_mss tcp route;
      rexmt_timer = Sim.timer tcp.hst.Host.sim ignore;
      delack_timer = Sim.timer tcp.hst.Host.sim ignore;
      persist_timer = Sim.timer tcp.hst.Host.sim ignore;
      time_wait_timer = Sim.timer tcp.hst.Host.sim ignore;
      keep_timer = Sim.timer tcp.hst.Host.sim ignore;
      keep_probes = 0;
      srtt = 0;
      rttvar = 0;
      rto = rto_init;
      rtt_seq = 0;
      rtt_t0 = -1;
      wr_seq = 0;
      wr_t0 = -1;
      setup_t0 = Sim.now tcp.hst.Host.sim;
      ack_pending = false;
      need_ack_now = false;
      dupacks = 0;
      recover = iss;
      rexmt_shift = 0;
      ws_hint_tx = tcp.cfg.snd_buf;
      ws_hint_rx = tcp.cfg.rcv_buf;
      single_copy =
        (match route with
        | Some (ifc, _) -> ifc.Netif.single_copy
        | None -> false);
      tpl;
      csum_base = pseudo_base ~laddr:local_addr ~raddr;
      pumping = false;
      pump_proc = "kernel";
      pump_intr = false;
      pump_site = Cpu.Header;
      pump_k = ignore;
      rx_cost_pending = None;
      on_rx_cost = None;
      on_readable = (fun () -> ());
      on_sendable = (fun () -> ());
      on_established = (fun () -> ());
      on_closed = (fun () -> ());
      stats = new_stats ();
    }
  in
  (* The timer callbacks need the pcb, so they are installed after the
     record exists; each is allocated once for the connection's life. *)
  Sim.set_fn pcb.rexmt_timer (fun () -> rto_fire pcb);
  Sim.set_fn pcb.delack_timer (fun () -> delack_fire pcb);
  Sim.set_fn pcb.persist_timer (fun () -> persist_fire pcb);
  Sim.set_fn pcb.time_wait_timer (fun () -> to_closed pcb);
  Sim.set_fn pcb.keep_timer (fun () -> keep_fire pcb);
  pcb.pump_k <- (fun () -> pump_step pcb);
  Flowtab.add tcp.tabs.(shard) ~hash:flow_hash ~ka:(key_a ~lport ~rport)
    ~kb:(Flow_hash.addr_bits raddr) pcb;
  pcb

let lookup tcp ~lport ~raddr ~rport =
  let h = Flow_hash.hash ~raddr ~lport ~rport in
  Flowtab.find
    tcp.tabs.(Flow_hash.shard ~count:tcp.shard_count h)
    ~hash:h ~ka:(key_a ~lport ~rport) ~kb:(Flow_hash.addr_bits raddr)

(* ---------- connection plane: raw control segments ---------- *)

(* Emit a control segment for a connection that has no pcb: the
   listener's SYN-ACK (half-open admission, cookie fallback) and the RST
   on accept-queue overflow.  Host-checksummed by [emit]'s own helpers,
   so these segments are byte-identical to ones a pcb in the same
   sequence state would emit. *)
let emit_raw tcp ~laddr ~raddr ~lport ~rport ~seq ~ack ~flags ~options
    ~window =
  let hdr_len = Tcp_header.base_size + Tcp_header.options_size options in
  let hbytes =
    encode_header ~hdr_len ~flags ~window ~options ~src_port:lport
      ~dst_port:rport ~seq ~ack
  in
  set_host_csum hbytes hdr_len
    ~pseudo:(Inet_csum.add_u16 (pseudo_base ~laddr ~raddr) hdr_len)
    Inet_csum.zero;
  ip_output tcp ~src:laddr ~dst:raddr (build_seg hbytes hdr_len None)

(* The window a fresh SYN-ACK advertises: the full receive buffer,
   scaled only when the peer offered window scaling (exactly what
   [window_field] computes on a pcb with an empty receive queue). *)
let synack_window cfg ~wscale_on =
  let shift = if wscale_on then wanted_wscale cfg else 0 in
  min (cfg.rcv_buf lsr shift) 0xffff

(* ---------- SYN cookies (stateless fallback) ---------- *)

(* When the SYN table saturates, encode everything needed to rebuild the
   connection into the ISS we send: 28 keyed-hash bits binding the
   4-tuple and the client's ISN, plus 3 bits indexing a small MSS table.
   The handshake ACK returns the cookie in its ack field; validation
   recomputes the hash.  No host state exists until then. *)
let cookie_mss_table = [| 536; 1460; 4312; 8960; 16384; 32768; 43688; 65160 |]

let cookie_mss_index mss =
  let idx = ref 0 in
  Array.iteri (fun i m -> if m <= mss then idx := i) cookie_mss_table;
  !idx

let cookie_hash tcp ~raddr ~lport ~rport ~irs =
  Hashtbl.hash
    (tcp.cookie_secret, Flow_hash.addr_bits raddr, lport, rport, (irs : int))
  land 0x0fff_ffff

let cookie_iss tcp ~raddr ~lport ~rport ~irs ~mss =
  Tcp_seq.norm
    ((cookie_hash tcp ~raddr ~lport ~rport ~irs lsl 3)
    lor cookie_mss_index mss)

let cookie_validate tcp ~raddr ~lport ~rport ~irs ~iss =
  let h = cookie_hash tcp ~raddr ~lport ~rport ~irs in
  if iss lsr 3 = h then Some cookie_mss_table.(iss land 7) else None

(* ---------- connection plane: SYN queue + promotion ---------- *)

(* The one constructor of a half-open: a queued SYN, a forged flood SYN,
   or a cookie rebuilt from its handshake ACK ([created] -1: no SYN
   timestamp survives a cookie, and it never holds a SYN slot). *)
let half_open ~laddr ~raddr ~lport ~rport ~shard ~iss ~irs ~mss ~wscale
    ~created ~forged =
  {
    ho_laddr = laddr;
    ho_raddr = raddr;
    ho_lport = lport;
    ho_rport = rport;
    ho_shard = shard;
    ho_iss = iss;
    ho_irs = irs;
    ho_mss = mss;
    ho_wscale = wscale;
    ho_created = created;
    ho_deadline = created + rto_init;
    ho_rexmits = 0;
    ho_forged = forged;
  }

let send_synack tcp ho =
  emit_raw tcp ~laddr:ho.ho_laddr ~raddr:ho.ho_raddr ~lport:ho.ho_lport
    ~rport:ho.ho_rport ~seq:ho.ho_iss
    ~ack:(Tcp_seq.add ho.ho_irs 1)
    ~flags:[ Tcp_header.SYN; Tcp_header.ACK ]
    ~options:
      [ Tcp_header.Mss ho.ho_mss;
        Tcp_header.Window_scale (wanted_wscale tcp.cfg) ]
    ~window:(synack_window tcp.cfg ~wscale_on:(ho.ho_wscale >= 0))

(* Every SYN-ACK a half-open sends (on admission, to a duplicate SYN, on
   a reaper retransmit) is one ACK-cost interrupt on its shard. *)
let charge_synack tcp ~site ho =
  Host.in_intr_on tcp.hst ~shard:ho.ho_shard ~site
    (Memcost.ack tcp.hst.Host.profile) (fun () -> send_synack tcp ho)

(* The half-open reaper: one timer per listener, armed only while its
   SYN table is non-empty (a clean handshake stops it before it ever
   fires).  Expired real entries get their SYN-ACK retransmitted with
   exponential backoff up to [max_synack_rexmt], then time out; forged
   flood entries just time out. *)
let reaper_tick = Simtime.ms 50.

(* Rexmit schedule: the waits double from [rto_init], 200/400/800/1600/
   3200/6400 ms, so a half-open lives about 12.6 s (plus reaper-tick
   slack) before timing out — long enough that a sustained flood keeps
   the SYN queue saturated. *)
let max_synack_rexmt = 5

let arm_reaper tcp l =
  if not (Sim.armed l.l_reaper) then
    Sim.rearm tcp.hst.Host.sim l.l_reaper reaper_tick

let maybe_stop_reaper tcp l =
  if Listenq.syn_count l.l_q = 0 then Sim.stop tcp.hst.Host.sim l.l_reaper

let reaper_fire tcp l =
  if (not l.l_closed) && Listenq.syn_count l.l_q > 0 then begin
    let now = Sim.now tcp.hst.Host.sim in
    let expired = ref [] in
    Listenq.syn_iter
      (fun key ho ->
        if now >= ho.ho_deadline then expired := (key, ho) :: !expired)
      l.l_q;
    List.iter
      (fun (key, ho) ->
        (* Forged entries are NOT special-cased: the server cannot tell
           a spoofed SYN from a slow client, so it pays the same
           SYN-ACK retransmit schedule for both — that occupancy is
           what makes a SYN flood a flood. *)
        if ho.ho_rexmits >= max_synack_rexmt then begin
          Listenq.syn_remove l.l_q key;
          Obs.Counter.incr conn_syn_timeouts
        end
        else begin
          ho.ho_rexmits <- ho.ho_rexmits + 1;
          ho.ho_deadline <- now + (rto_init * (1 lsl ho.ho_rexmits));
          Obs.Counter.incr conn_synack_rexmits;
          Obs.Counter.incr agg_retransmits;
          charge_synack tcp ~site:Cpu.Timer ho
        end)
      !expired;
    if Listenq.syn_count l.l_q > 0 then
      Sim.rearm tcp.hst.Host.sim l.l_reaper reaper_tick
  end

(* The one admission of a half-open: its SYN slot, the reaper, and the
   SYN-ACK. *)
let admit tcp l ho =
  ignore
    (Listenq.syn_add l.l_q (half_open_key ~raddr:ho.ho_raddr ~rport:ho.ho_rport)
       ho
      : bool);
  arm_reaper tcp l;
  charge_synack tcp ~site:Cpu.Header ho

(* The synflood fault site fired: ride [n] forged SYNs on spoofed
   tuples into the listener ahead of the real one.  The server cannot
   tell them apart, so each is admitted like a genuine SYN: it occupies
   a SYN slot, charges the interrupt, and is answered with a SYN-ACK
   (routed nowhere useful — the source is spoofed).  No ACK ever
   arrives; the reaper's full retransmit schedule is what frees them,
   and that occupancy is the attack. *)
let inject_forged_syns tcp l ~laddr n =
  let now = Sim.now tcp.hst.Host.sim in
  for _ = 1 to n do
    let raddr =
      Inaddr.v 172 16 (Rng.int tcp.flood_rng 256) (1 + Rng.int tcp.flood_rng 254)
    in
    (* Spoofed source ports stay below the ephemeral range (10000+): the
       testbed's default route delivers our SYN-ACKs to the peer host,
       and a colliding tuple would corrupt one of its live outbound
       connections — a real flood's SYN-ACKs go to third parties. *)
    let rport = 1024 + Rng.int tcp.flood_rng 8900 in
    let shard =
      Flow_hash.shard ~count:tcp.shard_count
        (Flow_hash.hash ~raddr ~lport:l.l_port ~rport)
    in
    Obs.Counter.incr conn_syn_rcvd;
    if Listenq.syn_full l.l_q then begin
      tcp.penalty.(shard) <- Float.min 8. (tcp.penalty.(shard) *. 2.);
      Obs.Counter.incr conn_syn_drop_full
    end
    else begin
      Obs.Counter.incr conn_flood_injected;
      admit tcp l
        (half_open ~laddr ~raddr ~lport:l.l_port ~rport ~shard
           ~iss:(Tcp_seq.norm (Rng.int tcp.flood_rng 0x40000000))
           ~irs:0 ~mss:536 ~wscale:(-1) ~created:now ~forged:true)
    end
  done

(* Promote a completed handshake into a full pcb — the only moment the
   listener allocates connection state, so a server pcb is never in a
   handshake state.  The half-open's rexmits and [verified_hw]
   reconstruct the stats the pcb would have accumulated had it existed
   since the SYN, its creation time (-1 for a cookie: no sample) times
   the setup, and the acceptor is notified before the ACK's payload is
   processed. *)
let establish_server_pcb tcp l ho ~verified_hw (hdr : Tcp_header.t) chain =
  let lport = ho.ho_lport and raddr = ho.ho_raddr and rport = ho.ho_rport in
  if lookup tcp ~lport ~raddr ~rport <> None then
    (* A duplicate (cookie) ACK raced an earlier promotion that was
       still queued behind its interrupt charge: the tuple is already
       established — never create a second pcb for it. *)
    Mbuf.free chain
  else begin
    let pcb =
      make_pcb ~iss:ho.ho_iss tcp ~local_addr:ho.ho_laddr ~lport ~raddr ~rport
    in
    let s = pcb.stats and rexmits = ho.ho_rexmits in
    s.segs_sent <- 1 + rexmits;
    s.segs_rcvd <- 1;
    s.csum_host_tx <- 1 + rexmits;
    s.retransmits <- rexmits;
    s.rto_fires <- rexmits;
    if verified_hw then s.csum_hw_verified_rx <- 1
    else s.csum_host_verified_rx <- 1;
    pcb.setup_t0 <- ho.ho_created;
    (* The SYN-ACK consumed one sequence number before this pcb existed. *)
    pcb.snd_nxt <- Tcp_seq.add ho.ho_iss 1;
    pcb.snd_max <- pcb.snd_nxt;
    handshake_done pcb ~irs:ho.ho_irs ~mss:ho.ho_mss ~wscale:ho.ho_wscale hdr;
    pcb.rcv_adv <- Tcp_seq.add pcb.rcv_nxt (rcv_space pcb);
    Obs.Counter.incr conn_promoted;
    keepalive_touch pcb;
    (match l.l_on_accept with
    | Some cb ->
        Obs.Counter.incr conn_accepted;
        cb pcb
    | None ->
        if Listenq.acc_push l.l_q (pcb, Sim.now tcp.hst.Host.sim) then begin
          Obs.Counter.incr conn_accept_queued;
          l.l_acc_shard.(pcb.shard) <- l.l_acc_shard.(pcb.shard) + 1;
          l.l_on_acceptable ()
        end
        else begin
          (* The overflow check runs before promotion; this is the
             belt-and-braces path for a race with the fault site. *)
          Obs.Counter.incr conn_accept_overflow;
          send_control pcb ~flags:[ Tcp_header.RST; Tcp_header.ACK ] ();
          to_closed pcb
        end);
    (* The handshake ACK may carry data. *)
    process_data pcb ~seq:hdr.Tcp_header.seq chain
  end

(* A SYN (without ACK) reached a listener: admission control, then a
   compact half-open — never a pcb.  Shedding order: memory pressure
   first (protect established flows), then this shard's accept-queue
   share (the app is not draining), then the SYN queue bound (penalty
   bump, cookie fallback).  Every path frees the segment; the admitted
   path charges exactly what the old code charged (one ack-cost
   interrupt covering the SYN-ACK emission). *)
let syn_arrived tcp l ~laddr ~raddr ~lport ~rport ~flow_hash ~shard
    (hdr : Tcp_header.t) seg =
  Obs.Counter.incr conn_syn_rcvd;
  let irs = hdr.Tcp_header.seq and opts = hdr.Tcp_header.options in
  let mss = syn_mss (default_mss tcp ~dst:raddr) opts in
  match Listenq.syn_find l.l_q (half_open_key ~raddr ~rport) with
  | Some ho when not ho.ho_forged ->
      (* Duplicate SYN: our SYN-ACK was lost or is late.  Resend it (the
         per-pcb rexmt timer used to do this). *)
      Obs.Counter.incr conn_syn_dup;
      Mbuf.free seg;
      charge_synack tcp ~site:Cpu.Header ho
  | Some _ | None ->
      let pressure = tcp.pressure_fn () in
      if pressure >= 0.9 then begin
        Obs.Counter.incr conn_shed_pressure;
        Mbuf.free seg
      end
      else if
        let b = Listenq.backlog l.l_q in
        b <> max_int
        && l.l_acc_shard.(shard) > 2 * max 1 (b / tcp.shard_count)
      then begin
        (* This shard's accept backlog share is saturated: shed before
           promoting more work onto a CPU the app is not draining. *)
        Obs.Counter.incr conn_shed_accept;
        Mbuf.free seg
      end
      else if Listenq.syn_full l.l_q then begin
        let p = Float.min 8. (tcp.penalty.(shard) *. 2.) in
        tcp.penalty.(shard) <- p;
        tcp.sat_tick.(shard) <- tcp.sat_tick.(shard) + 1;
        (* Saturation is answered statelessly (a cookie) when the
           listener allows it — that path stores nothing, so starving
           genuine clients to protect it would be backwards.  The shard
           penalty instead RATE-LIMITS the stateless responder: once the
           shard has been overflowing persistently (p pinned at the
           cap), every other SYN is shed to bound the interrupt load of
           answering a flood at line rate. *)
        if (not l.l_cookies) || (p >= 6. && tcp.sat_tick.(shard) land 1 = 0)
        then begin
          (if l.l_cookies then Obs.Counter.incr conn_shed_penalty
           else Obs.Counter.incr conn_syn_drop_full);
          Mbuf.free seg
        end
        else begin
          (* Stateless fallback: answer without storing anything. *)
          Obs.Counter.incr conn_cookies_sent;
          l.l_cookies_sent <- l.l_cookies_sent + 1;
          let iss = cookie_iss tcp ~raddr ~lport ~rport ~irs ~mss in
          let mss_echo = cookie_mss_table.(cookie_mss_index mss) in
          Mbuf.free seg;
          Host.in_intr_on tcp.hst ~shard ~site:Cpu.Header
            (Memcost.ack tcp.hst.Host.profile) (fun () ->
              emit_raw tcp ~laddr ~raddr ~lport ~rport ~seq:iss
                ~ack:(Tcp_seq.add irs 1)
                ~flags:[ Tcp_header.SYN; Tcp_header.ACK ]
                ~options:[ Tcp_header.Mss mss_echo ]
                ~window:(synack_window tcp.cfg ~wscale_on:false))
        end
      end
      else begin
        tcp.penalty.(shard) <- Float.max 1. (tcp.penalty.(shard) *. 0.98);
        let iss = draw_iss tcp ~flow_hash in
        Obs.Counter.incr conn_syn_queued;
        Mbuf.free seg;
        admit tcp l
          (half_open ~laddr ~raddr ~lport ~rport ~shard ~iss ~irs ~mss
             ~wscale:(syn_wscale (-1) opts) ~created:(Sim.now tcp.hst.Host.sim)
             ~forged:false)
      end

(* An ACK completing a handshake, for a queued half-open or one rebuilt
   from a valid cookie: verify, claim, charge like any received segment,
   then answer an overflowing accept queue with RST or promote.  An RST,
   or an ACK below our ISS, only frees its claim. *)
let handshake_ack tcp l ho (hdr : Tcp_header.t) seg ~payload_len ~hdr_size =
  let v =
    verify_rx_csum tcp
      ~base:(pseudo_base ~laddr:ho.ho_laddr ~raddr:ho.ho_raddr)
      ~ws_hint:tcp.cfg.rcv_buf seg
  in
  if v = csum_bad then Mbuf.free seg
  else begin
    if ho.ho_created < 0 then Obs.Counter.incr conn_cookies_validated;
    (* Claim the half-open NOW, before the charged closure runs: a
       reaper-retransmitted SYN-ACK can elicit a second handshake ACK
       that would otherwise find the entry still present and promote
       the same tuple twice.  A cookie holds no slot, so its claim
       removes nothing. *)
    let rst = Tcp_header.has Tcp_header.RST hdr in
    let promotes = (not rst) && Tcp_seq.gt hdr.Tcp_header.ack ho.ho_iss in
    if rst || promotes then begin
      Listenq.syn_remove l.l_q
        (half_open_key ~raddr:ho.ho_raddr ~rport:ho.ho_rport);
      maybe_stop_reaper tcp l
    end;
    charge_rx tcp ~shard:ho.ho_shard ~payload_len v (fun () ->
        Mbuf.adj_head seg hdr_size;
        if not promotes then Mbuf.free seg
        else if
          l.l_on_accept = None
          && (Listenq.acc_full l.l_q || Fault.fire "conn.accept_full")
        then begin
          Obs.Counter.incr conn_accept_overflow;
          if l.l_rst_on_full then
            emit_raw tcp ~laddr:ho.ho_laddr ~raddr:ho.ho_raddr
              ~lport:ho.ho_lport ~rport:ho.ho_rport ~seq:hdr.Tcp_header.ack
              ~ack:(Tcp_seq.add ho.ho_irs 1)
              ~flags:[ Tcp_header.RST; Tcp_header.ACK ]
              ~options:[] ~window:0;
          Mbuf.free seg
        end
        else establish_server_pcb tcp l ho ~verified_hw:(v = csum_hw) hdr seg)
  end

(* An ACK matching no half-open while cookies are outstanding: it may
   carry a cookie we minted statelessly.  Validation is pure arithmetic;
   a valid cookie rebuilds its half-open and completes the handshake like
   a queued one. *)
let cookie_ack tcp l ~laddr ~raddr ~lport ~rport ~shard (hdr : Tcp_header.t)
    seg ~payload_len ~hdr_size =
  let irs = Tcp_seq.add hdr.Tcp_header.seq (-1) in
  let iss = Tcp_seq.add hdr.Tcp_header.ack (-1) in
  match cookie_validate tcp ~raddr ~lport ~rport ~irs ~iss with
  | None ->
      Obs.Counter.incr conn_cookies_rejected;
      Mbuf.free seg
  | Some mss ->
      handshake_ack tcp l
        (half_open ~laddr ~raddr ~lport ~rport ~shard ~iss ~irs ~mss
           ~wscale:(-1) ~created:(-1) ~forged:false)
        hdr seg ~payload_len ~hdr_size

let input tcp ~src ~dst seg =
  let seg = Mbuf.pullup seg Tcp_header.base_size in
  let seg_len = Mbuf.pkt_len seg in
  let hlen = min seg_len 64 in
  (* Zero-copy decode when the header (with options) is contiguous after
     the pullup; staging copy only when it straddles a segment. *)
  let hbytes, hoff =
    match Mbuf.view seg ~off:0 ~len:hlen with
    | Some (b, pos) -> (b, pos)
    | None ->
        (* Reuse the per-instance staging buffer (hlen <= 64): this slow
           path must not allocate per segment. *)
        Mbuf.copy_into seg ~off:0 ~len:hlen tcp.staging ~dst_off:0;
        (tcp.staging, 0)
  in
  match Tcp_header.decode hbytes ~off:hoff ~len:hlen with
  | Error _ -> Mbuf.free seg
  | Ok hdr -> (
      let hdr_size = Tcp_header.size hdr in
      let payload_len = seg_len - hdr_size in
      match lookup tcp ~lport:hdr.Tcp_header.dst_port ~raddr:src
              ~rport:hdr.Tcp_header.src_port
      with
      | Some pcb ->
          (* Charge the receive-side processing before acting. *)
          let v = verify_checksum pcb seg in
          if v = csum_bad then Mbuf.free seg
          else
            charge_rx tcp ~shard:pcb.shard ~payload_len v (fun () ->
                (* Strip the TCP header, keep descriptor metadata. *)
                Mbuf.adj_head seg hdr_size;
                segment_arrived pcb hdr seg)
      | None -> (
          (* No pcb: the connection plane.  O(1) port lookup, then the
             bounded SYN/accept machinery on the shard the tuple hashes
             to. *)
          let lport = hdr.Tcp_header.dst_port
          and rport = hdr.Tcp_header.src_port in
          let flow_hash = Flow_hash.hash ~raddr:src ~lport ~rport in
          let shard = Flow_hash.shard ~count:tcp.shard_count flow_hash in
          match find_listener tcp ~port:lport with
          | None ->
              (* No socket: drop (a full RST generator is not needed for
                 the experiments). *)
              Mbuf.free seg
          | Some l ->
              if
                Tcp_header.has Tcp_header.SYN hdr
                && not (Tcp_header.has Tcp_header.ACK hdr)
              then begin
                (* Fault site: a firing consult rides forged SYNs in
                   ahead of the real one. *)
                (match Fault.fire_at "tcp.synflood" ~bound:8 with
                | Some n -> inject_forged_syns tcp l ~laddr:dst (n + 1)
                | None -> ());
                syn_arrived tcp l ~laddr:dst ~raddr:src ~lport ~rport
                  ~flow_hash ~shard hdr seg
              end
              else if Tcp_header.has Tcp_header.ACK hdr then begin
                match Listenq.syn_find l.l_q (half_open_key ~raddr:src ~rport)
                with
                | Some ho ->
                    handshake_ack tcp l ho hdr seg ~payload_len ~hdr_size
                | None ->
                    if l.l_cookies && l.l_cookies_sent > 0 then
                      cookie_ack tcp l ~laddr:dst ~raddr:src ~lport ~rport
                        ~shard hdr seg ~payload_len ~hdr_size
                    else Mbuf.free seg
              end
              else Mbuf.free seg))

let create ~ip ~config =
  let hst = Ipv4.host ip in
  let shard_count = Host.shard_count hst in
  let tcp =
    {
      ip;
      hst;
      cfg = config;
      shard_count;
      tabs = Array.init shard_count (fun _ -> Flowtab.create ());
      ports = Flowtab.create ();
      next_port = 10000;
      next_iss = 1000;
      iss_rng = Rng.create ~seed:(0x1995 lxor Hashtbl.hash hst.Host.name);
      pressure_fn = (fun () -> 0.);
      penalty = Array.make shard_count 1.0;
      sat_tick = Array.make shard_count 0;
      flood_rng = Rng.create ~seed:(0xf100d lxor Hashtbl.hash hst.Host.name);
      cookie_secret = 0x5ca1ab1e lxor Hashtbl.hash hst.Host.name;
      staging = Bytes.create 64;
    }
  in
  if shard_count > 1 then
    Array.iteri
      (fun i tab ->
        Obs.gauge ~section:"shard"
          ~name:(Printf.sprintf "%s.%d.flows" hst.Host.name i) (fun () ->
            float_of_int (Flowtab.length tab)))
      tcp.tabs;
  Ipv4.register_protocol ip ~proto:Ipv4_header.proto_tcp
    (fun ~src ~dst seg -> input tcp ~src ~dst seg);
  tcp

let set_initial_sequence tcp iss = tcp.next_iss <- Tcp_seq.norm iss

(* ---------- listener API ---------- *)

let create_listener tcp ~port ?(backlog = 1024) ?(syn_backlog = 512)
    ?(rst_on_full = true) ?(cookies = true) ?on_accept () =
  (match
     Flowtab.find tcp.ports ~hash:(port_hash port) ~ka:(port_ka port)
       ~kb:port_kb
   with
  | Some _ ->
      invalid_arg (Printf.sprintf "Tcp.listen: port %d in use" port)
  | None -> ());
  let l =
    {
      l_tcp = tcp;
      l_port = port;
      l_rst_on_full = rst_on_full;
      l_cookies = cookies;
      l_on_accept = on_accept;
      l_on_acceptable = (fun () -> ());
      l_q = Listenq.create ~syn_backlog ~backlog;
      l_acc_shard = Array.make tcp.shard_count 0;
      l_reaper = Sim.timer tcp.hst.Host.sim ignore;
      l_closed = false;
      l_cookies_sent = 0;
    }
  in
  Sim.set_fn l.l_reaper (fun () -> reaper_fire tcp l);
  Flowtab.add tcp.ports ~hash:(port_hash port) ~ka:(port_ka port)
    ~kb:port_kb l;
  l

(* The legacy single-argument API: unbounded accept (auto-accept
   callback), a generous SYN queue, silent drop on overflow — the
   pre-overload-plane behaviour existing callers rely on. *)
let listen tcp ~port ~on_accept =
  ignore
    (create_listener tcp ~port ~backlog:max_int ~syn_backlog:4096
       ~rst_on_full:false ~cookies:false ~on_accept ()
      : listener)

let accept l =
  match Listenq.acc_pop l.l_q with
  | None -> None
  | Some (pcb, t0) ->
      l.l_acc_shard.(pcb.shard) <- l.l_acc_shard.(pcb.shard) - 1;
      Obs.Counter.incr conn_accepted;
      Obs.Histogram.observe Obs_lat.accept_ns
        (Simtime.sub (Sim.now l.l_tcp.hst.Host.sim) t0);
      Some pcb

let listener_pending l = Listenq.acc_count l.l_q
let listener_half_open l = Listenq.syn_count l.l_q
let set_on_acceptable l f = l.l_on_acceptable <- f

let half_open_info l ~raddr ~rport =
  match Listenq.syn_find l.l_q (half_open_key ~raddr ~rport) with
  | Some ho -> Some (ho.ho_iss, ho.ho_rexmits)
  | None -> None

let connect tcp ~dst ~dst_port ?(on_established = fun () -> ()) () =
  (* Ephemeral range 10001..59999 with wraparound: a server-scale client
     can open far more connections than the range holds, as long as
     earlier ones have left the flow table (time-wait shadowing replaces
     entries, so reuse during drain is safe). *)
  tcp.next_port <-
    (if tcp.next_port >= 59999 then 10000 else tcp.next_port + 1);
  let lport = tcp.next_port in
  let local_addr =
    match Ipv4.route_for tcp.ip ~dst with
    | Some (ifc, _) -> ifc.Netif.addr
    | None -> Inaddr.any
  in
  let pcb = make_pcb tcp ~local_addr ~lport ~raddr:dst ~rport:dst_port in
  pcb.st <- Syn_sent;
  pcb.rcv_wscale <- wanted_wscale tcp.cfg;
  pcb.on_established <- on_established;
  send_control pcb ~flags:[ Tcp_header.SYN ] ();
  pcb

(* ---------- socket-layer interface ---------- *)

let sosend_append pcb ~proc chain =
  match pcb.st with
  | Established | Close_wait ->
      let merge = pcb.tcp.cfg.coalesce_descriptors in
      let merges =
        merge && Tcp_sendq.append_merges_descriptor pcb.sendq chain
      in
      let queued = Tcp_sendq.length pcb.sendq in
      Tcp_sendq.append ~merge_descriptors:merge pcb.sendq chain;
      let appended = Tcp_sendq.length pcb.sendq - queued in
      (* The app's buffer plus the kernel copy form the cache working set
         for the checksum pass. *)
      pcb.ws_hint_tx <- 2 * appended;
      if merges then begin
        pcb.stats.descriptor_merges <- pcb.stats.descriptor_merges + 1;
        Obs_trace.emit Obs_trace.Sendq_merge ~a:appended ~b:queued
      end;
      Obs_trace.emit Obs_trace.Sendq_append ~a:appended
        ~b:(Tcp_sendq.length pcb.sendq);
      (* Time this write to the ACK covering its last byte (one write
         timed at a time; dropped on retransmit like the RTT sample). *)
      if pcb.wr_t0 < 0 then begin
        pcb.wr_seq <- Tcp_seq.add pcb.snd_una (Tcp_sendq.length pcb.sendq);
        pcb.wr_t0 <- Sim.now pcb.tcp.hst.Host.sim
      end;
      pump pcb ~proc;
      Ok ()
  | st ->
      Mbuf.free chain;
      Error
        (Printf.sprintf "send in state %s" (state_to_string st))

let recv_available pcb = pcb.rcvq_len

(* Length of the first in-order chain waiting for the application, 0 when
   none: the socket layer sizes its claims to whole chains so an outboard
   segment is not split into two copy-out descriptors across a read
   boundary. *)
let recv_first_chain_len pcb =
  match pcb.rcvq with [] -> 0 | c :: _ -> Mbuf.chain_len c

(* Send a window update if consuming data opened the advertised window
   significantly (BSD policy: two segments or half the buffer). *)
let maybe_window_update pcb =
  let new_edge = Tcp_seq.add pcb.rcv_nxt (rcv_space pcb) in
  let growth = Tcp_seq.diff new_edge pcb.rcv_adv in
  if
    growth >= 2 * pcb.mss_val
    || growth >= pcb.tcp.cfg.rcv_buf / 2
  then send_ack_now pcb

(* Detach the queue's first chain [c] (the queue is [c :: rest], [c] is
   [cl] bytes long), or only its first [room] bytes when it is longer. *)
let detach_front pcb c cl rest room =
  if cl <= room then begin
    pcb.rcvq <- rest;
    c
  end
  else begin
    let front, back = Mbuf.split c room in
    pcb.rcvq <- back :: rest;
    front
  end

(* Append further queued chains to [head] while [got] < [max]. *)
let rec recv_more pcb head got max =
  if got >= max then got
  else
    match pcb.rcvq with
    | [] -> got
    | c :: rest ->
        let cl = Mbuf.chain_len c in
        let room = max - got in
        Mbuf.append head (detach_front pcb c cl rest room);
        recv_more pcb head (got + if cl <= room then cl else room) max

let recv pcb ~max =
  if max > 0 then pcb.ws_hint_rx <- 2 * max;
  if max <= 0 || pcb.rcvq_len = 0 then None
  else
    match pcb.rcvq with
    | [] ->
        maybe_window_update pcb;
        None
    | c :: rest ->
        (* Almost always the whole answer is the first chain: nothing
           beyond its header is built for it. *)
        let cl = Mbuf.chain_len c in
        let head = detach_front pcb c cl rest max in
        if not (Mbuf.has_pkthdr head) then
          head.Mbuf.pkthdr <-
            Some
              {
                Mbuf.pkt_len = Mbuf.chain_len head;
                rcvif = None;
                rx_csum = None;
                tx_csum = None;
                on_outboard = None;
              };
        let got = recv_more pcb head (if cl <= max then cl else max) max in
        pcb.rcvq_len <- pcb.rcvq_len - got;
        maybe_window_update pcb;
        Some head

let close pcb =
  match pcb.st with
  | Established | Close_wait ->
      pcb.fin_pending <- true;
      pump pcb ~proc:"kernel"
  | Syn_sent | Closed -> to_closed pcb
  | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait -> ()

let abort pcb =
  (* Best effort RST. *)
  (match pcb.st with
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      send_control pcb ~flags:[ Tcp_header.RST; Tcp_header.ACK ] ()
  | Closed | Syn_sent | Time_wait -> ());
  to_closed pcb

(* Closing a listener drains both queues: half-open records are freed
   outright (nothing was allocated beyond the record), and completed
   connections nobody accepted are RST and torn down — an exact
   occupancy drain, not a leak of orphan pcbs. *)
let close_listener l =
  if not l.l_closed then begin
    let tcp = l.l_tcp in
    l.l_closed <- true;
    Sim.stop tcp.hst.Host.sim l.l_reaper;
    Listenq.syn_drain
      (fun _ho -> Obs.Counter.incr conn_listen_drained)
      l.l_q;
    Listenq.acc_drain
      (fun (pcb, _t0) ->
        Obs.Counter.incr conn_listen_drained;
        l.l_acc_shard.(pcb.shard) <- l.l_acc_shard.(pcb.shard) - 1;
        abort pcb)
      l.l_q;
    Flowtab.remove tcp.ports ~hash:(port_hash l.l_port)
      ~ka:(port_ka l.l_port) ~kb:port_kb
  end

let unlisten tcp ~port =
  match find_listener tcp ~port with
  | Some l -> close_listener l
  | None -> ()

let pp_stats fmt (s : pcb_stats) =
  Format.fprintf fmt
    "segs %d/%d out/in; bytes %d/%d; acks %d (dup %d); retx %d (rto %d, \
     fast %d); csum tx %d hw / %d host; csum rx %d hw / %d host / %d bad; \
     wcab conv %d, rewrite hits %d; desc merges %d"
    s.segs_sent s.segs_rcvd s.bytes_sent s.bytes_rcvd s.acks_rcvd s.dup_acks
    s.retransmits s.rto_fires s.fast_retransmits s.csum_offloaded_tx
    s.csum_host_tx s.csum_hw_verified_rx s.csum_host_verified_rx
    s.csum_failures_rx s.wcab_converted s.wcab_retransmit_hits
    s.descriptor_merges
