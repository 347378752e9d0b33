(** TCP with the paper's single-copy modifications.

    A mostly classical BSD-style TCP — three-way handshake, sliding window
    with RFC 1323 window scaling, cumulative ACKs with delayed-ACK and
    Nagle policies, RTO with Karn/Jacobson timing, go-back-N plus fast
    retransmit — extended as §4 of the paper describes:

    - the send buffer ({!Tcp_sendq}) holds mixed regular / M_UIO / M_WCAB
      mbufs; packetization *searches* the queue instead of copying;
    - on the single-copy path the checksum is not computed: an offload
      record (pseudo-header seed + field offset) is attached to the packet
      for the driver ({!Mbuf.pkthdr.tx_csum});
    - when the driver finishes the outboard copy it calls the packet's
      [on_outboard] hook and the queued range is swapped to M_WCAB, so
      retransmission rewrites only the header;
    - received packets carrying hardware checksum state
      ([pkthdr.rx_csum]) are verified by *adjusting* the engine sum with
      the skipped transport-header bytes and the pseudo-header — the data
      is never read;
    - descriptor-mbuf payloads bypass Nagle and are never coalesced across
      write boundaries (§7.1's measurement configuration).

    Congestion control is deliberately absent: the paper's testbed is a
    lossless HIPPI LAN and predates its relevance to this workload; loss
    appears only through fault injection and is handled by RTO/dup-ACK
    retransmission.

    Cost accounting: each transmitted segment charges the per-packet
    overhead (plus the host checksum read when not offloaded) to the
    context that triggered it; each received segment charges its
    processing cost in interrupt context. *)

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

type config = {
  mss_cap : int option;  (** upper bound on negotiated MSS *)
  snd_buf : int;  (** send-buffer high-water mark (bytes) *)
  rcv_buf : int;  (** receive buffer = advertised window (bytes) *)
  msl : Simtime.t;  (** TIME_WAIT holds for 2*msl *)
  coalesce_descriptors : bool;
      (** ablation knob: allow packets to span M_UIO write boundaries and
          subject descriptor data to Nagle.  The paper's stack does NOT
          coalesce (§7.1); default false. *)
  keepalive_idle : Simtime.t;
      (** idle time before keepalive probing starts; 0 disables the
          keepalive machinery entirely (the default — one branch per
          received segment) *)
  keepalive_intvl : Simtime.t;
      (** interval between unanswered keepalive probes *)
  keepalive_probes : int;
      (** unanswered probes before the flow is reaped (RST + close) *)
}

val default_config : config
(** 512 KByte buffers (the paper's test window), no MSS cap, 20 ms MSL,
    no descriptor coalescing, keepalive off.

    Fixed for every connection: RFC 1323 window scaling, Nagle and
    delayed ACKs (ACK every second segment, else after 2 ms) are always
    on; the RTO starts at 200 ms, never falls below 100 ms and backs off
    to at most 2 s, and 12 consecutive RTO expirations drop the
    connection (BSD's TCP_MAXRXTSHIFT).  Whether
    a segment takes the single-copy path is decided by its route's
    interface ({!Netif.t.single_copy}), not by this configuration. *)

type t
(** Per-host TCP instance (demux tables, ISS state). *)

type pcb
(** One connection. *)

val create : ip:Ipv4.t -> config:config -> t
(** Registers protocol 6 with the IP instance. *)

val set_initial_sequence : t -> int -> unit
(** Override the next connection's initial sequence number — a testing
    hook for exercising 32-bit sequence wraparound. *)

(** {1 Connection management} *)

type listener
(** A listening port: bounded SYN (half-open) queue + bounded accept
    queue, per-shard O(1) port demux, overload shedding, optional
    SYN-cookie stateless fallback.  A SYN allocates a compact half-open
    record; a full pcb exists only once the handshake completes. *)

val listen : t -> port:int -> on_accept:(pcb -> unit) -> unit
(** Legacy auto-accept API: [on_accept] fires when a connection reaches
    Established.  Equivalent to {!create_listener} with an unbounded
    accept queue, a 4096-entry SYN queue, silent drop on overflow and no
    cookies.  Raises [Invalid_argument] if the port is in use. *)

val create_listener :
  t ->
  port:int ->
  ?backlog:int ->
  ?syn_backlog:int ->
  ?rst_on_full:bool ->
  ?cookies:bool ->
  ?on_accept:(pcb -> unit) ->
  unit ->
  listener
(** Full-control listen.  [backlog] (default 1024) bounds the accept
    queue, [syn_backlog] (default 512) the half-open table.
    [rst_on_full] (default true) answers accept-queue overflow with an
    RST instead of a silent drop.  [cookies] (default true) enables the
    stateless SYN-cookie fallback when the SYN queue saturates.  When
    [on_accept] is given, completed connections are handed to it
    directly (auto-accept); otherwise they wait in the accept queue for
    {!accept}.  Raises [Invalid_argument] if the port is in use. *)

val accept : listener -> pcb option
(** Pop the next established-but-unaccepted connection, observing its
    queue residency in the [lat.accept_ns] histogram.  The pcb may
    already have been reset by the peer while queued — check {!state}. *)

val close_listener : listener -> unit
(** Stop listening and drain: half-open records are freed, queued
    unaccepted connections are RST and torn down, the port is released.
    Connections already delivered via [on_accept]/{!accept} are
    untouched. *)

val unlisten : t -> port:int -> unit
(** {!close_listener} by port number; no-op if nobody listens there. *)

val listener_pending : listener -> int
(** Established connections waiting in the accept queue. *)

val listener_half_open : listener -> int
(** Half-open (SYN-received) entries currently held. *)

val set_on_acceptable : listener -> (unit -> unit) -> unit
(** Callback fired whenever a connection is appended to the accept
    queue — the readiness hook the socket poll layer builds on. *)

val half_open_info : listener -> raddr:Inaddr.t -> rport:int -> (int * int) option
(** Testing hook: the (iss, synack_rexmits) of the half-open entry for a
    remote tuple, if one is held. *)

val set_pressure_fn : t -> (unit -> float) -> unit
(** Install the memory-pressure signal ([0..1], e.g. mbuf/netmem pool
    occupancy).  At or above 0.9 listeners shed every new SYN
    ([conn.shed_pressure]) so established flows keep their buffers. *)

val connect :
  t ->
  dst:Inaddr.t ->
  dst_port:int ->
  ?on_established:(unit -> unit) ->
  unit ->
  pcb

val close : pcb -> unit
(** Orderly release: FIN after queued data drains. *)

val abort : pcb -> unit
(** RST and drop. *)

(** {1 Send / receive (socket layer interface)} *)

val state : pcb -> state
val local_port : pcb -> int
val remote : pcb -> Inaddr.t * int

val snd_space : pcb -> int
(** Free bytes in the send buffer. *)

val sosend_append : pcb -> proc:string -> Mbuf.t -> (unit, string) result
(** Append a chain (regular or M_UIO) to the send queue and pump output in
    the context of [proc].  The caller must respect {!snd_space}. *)

val recv_available : pcb -> int
(** Bytes queued for the application. *)

val recv_first_chain_len : pcb -> int
(** Length of the first in-order chain waiting for the application, 0
    when none.  Lets the socket layer claim whole chains so an outboard
    segment is not split into two copy-out descriptors (a sliver and a
    remainder, each paying full engine setup) across a read boundary. *)

val recv : pcb -> max:int -> Mbuf.t option
(** Dequeue up to [max] bytes (chains may contain M_WCAB mbufs that the
    socket layer must copy out through the driver).  Opens the advertised
    window and sends a window-update ACK when it grew enough. *)

val set_callbacks :
  pcb ->
  ?on_readable:(unit -> unit) ->
  ?on_sendable:(unit -> unit) ->
  ?on_closed:(unit -> unit) ->
  unit ->
  unit

val post_rx_cost : pcb -> bucket:int -> uio_us:int -> copy_us:int -> unit
(** Stage a receive-cost hint (see {!Tcp_header.option_}) to piggyback on
    the next non-SYN control segment (window updates, delayed ACKs…).
    Overwrites any hint still pending; data segments never carry it, so
    the preencoded-header transmit fast path is unaffected. *)

val set_rx_cost_handler :
  pcb -> (bucket:int -> uio_us:int -> copy_us:int -> unit) -> unit
(** Install the sink for receive-cost hints arriving from the peer; the
    socket layer forwards them into its {!Path_policy}. *)

(** {1 Introspection} *)

type pcb_stats = private {
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
      (** segments sent with the offload record *)
  mutable csum_host_tx : int;  (** segments checksummed by the host CPU *)
  mutable csum_hw_verified_rx : int;
  mutable csum_host_verified_rx : int;
  mutable csum_failures_rx : int;
  mutable wcab_converted : int;  (** send-queue ranges swapped to M_WCAB *)
  mutable wcab_retransmit_hits : int;
      (** retransmits that found data outboard *)
  mutable dropped_wcab_legacy : int;
      (** outboard retransmit data routed to a device that cannot send it *)
  mutable descriptor_merges : int;
      (** M_UIO descriptors from consecutive writes linked into one
          symbolic send-queue chain ([coalesce_descriptors]) *)
}

val pcb_stats : pcb -> pcb_stats
(** The pcb's live counter record: it keeps counting after the call, so
    read the fields when they are wanted. *)

val pcb_config : pcb -> config
val remote_iface : pcb -> Netif.t option
(** The interface the connection currently routes over — the socket layer
    consults it for single-copy path selection (§4.1: only the network
    layer knows). *)

val pcb_shard : pcb -> int
(** The RSS shard owning this connection ({!Flow_hash} over the demux
    tuple, mod the host's shard count; 0 on a 1-shard host). *)

val active_flows : t -> int
(** Open connections across all shards' demux tables (includes
    time-wait residents). *)

val pp_stats : Format.formatter -> pcb_stats -> unit
