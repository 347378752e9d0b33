(** The CAB network device driver (§3-§5).

    This is where every data-touching operation of the single-copy path
    lands: the driver translates descriptor chains into SDMA programs,
    carries the checksum-offload record into the hardware, converts send
    data to M_WCAB once it is outboard, reconstructs receive chains (host
    header prefix + M_WCAB tail), and provides the [copy_out] routine the
    socket layer uses to move outboard receive data.

    In [Unmodified] mode the same driver serves the baseline stack: it
    accepts only regular chains (descriptors are converted at entry by the
    §5 shim), programs no checksum hardware, and copies whole received
    packets into kernel mbufs before handing them up.

    Transmit packet geometry: [HIPPI (40) | IP (20) | transport | data],
    so the engine's receive-side fixed start (word 20 = byte 80) and the
    transmit skip/seed records line up as described in §4.3. *)

type t

type driver_stats = private {
  mutable tx_packets : int;
  mutable tx_uio_segments : int;  (** payload SDMAs straight from user memory *)
  mutable tx_kernel_segments : int;
  mutable tx_rewrites : int;  (** retransmits satisfied by header rewrite *)
  mutable tx_adaptor_copies : int;
      (** netmem-to-netmem payload copies (partial retransmit of outboard
          data) *)
  mutable tx_drops : int;  (** network-memory exhaustion or missing neighbor *)
  mutable rx_packets : int;
  mutable rx_wcab_delivered : int;
      (** packets handed up with an outboard tail *)
  mutable rx_copied_kernel : int;
      (** packets fully copied to kernel (unmodified) *)
  mutable copyouts : int;
  mutable unaligned_staged : int;  (** copy-outs staged through kernel memory *)
  mutable tx_gather_fallbacks : int;
      (** unaligned-scatter packets flattened into one kernel blob *)
  mutable tx_gather_bytes : int;  (** payload bytes those flattens copied *)
  mutable tx_staged_segments : int;
      (** word-misaligned user pieces bounced through a kernel staging
          buffer (the §4.5 guard; also charged to the ledger's
          [Drv_tx_stage]) *)
  mutable tx_staged_bytes : int;
  mutable sdma_timeouts : int;
      (** watchdog timeouts that reclaimed a stuck post and reposted it *)
  mutable adaptor_resets : int;
      (** last-resort adaptor resets after 3 reposts of one post *)
  mutable watchdog_polls : int;  (** lost-interrupt poll-timer firings *)
  mutable tx_exhausted : int;
      (** transmit drops because netmem allocation failed *)
}

val attach :
  host:Host.t ->
  ip:Ipv4.t ->
  cab:Cab.t ->
  addr:Inaddr.t ->
  ?mtu:int ->
  mode:Stack_mode.t ->
  ?watchdog:Simtime.t ->
  unit ->
  t
(** Creates the interface (MTU defaults to 32 KByte as in §7.1), hooks the
    adaptor's interrupt handler, and registers the interface + an on-link
    host route with IP.

    [watchdog] (default off) arms the recovery plane: a lost-interrupt
    poll timer at the given interval, plus per-post completion timeouts.
    A watched SDMA post that has not completed after 1 ms (doubled per
    retry) and shows up in the adaptor's stall status register is
    reclaimed and reposted; after 3 reposts the driver resets the adaptor
    and requeues every in-flight watched post.  With [watchdog] unset none
    of this machinery runs and the datapath is unchanged. *)

val iface : t -> Netif.t
val stats : t -> driver_stats
(** The driver's live counter record (it keeps counting after the
    call). *)

val pp_stats : Format.formatter -> driver_stats -> unit

val add_neighbor : t -> Inaddr.t -> hippi_addr:int -> unit
(** Static address resolution: IP next hop to HIPPI switch address. *)

val set_steer : t -> (Cab.intr -> int option) -> unit
(** Install the RSS steering classifier: given an adaptor event, return
    the flow hash of the frame it carries ([None] when unclassifiable —
    non-TCP, fragment, short head, SDMA completion).  On a multi-shard
    host, {!attach}'s batch-interrupt handler splits each burst by
    [hash mod shards] and raises one interrupt per owning shard; without
    a classifier (or on a 1-shard host) everything lands on shard 0. *)
