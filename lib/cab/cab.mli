(** The Gigabit Nectar CAB (Communication Acceleration Board) adaptor
    model (§2 of the paper).

    Structure follows Figure 1: network memory feeds one system DMA engine
    (SDMA, host <-> network memory across the TurboChannel) and media DMA
    engines (MDMA, network memory <-> HIPPI).  Checksums are computed in
    hardware: on transmit while data flows *into* network memory (so the
    result can be placed in the packet header before the media transfer),
    on receive while data flows *off the media* (so it is available as soon
    as the packet is).

    Timing: SDMA transfers serialize per channel (each a {!Resource}),
    costing the per-transfer engine overhead plus bytes at the calibrated
    effective bus bandwidth — none of which is host CPU time.  The model
    gives the receive side its own two channels: the auto-DMA/verify
    engine that lands arriving head prefixes, and the copy-out engine
    that moves queued tails to the host — so rx copy-outs pipeline with
    arrivals instead of serializing behind transmit SDMA on one channel.
    The host pays only the request-posting cost, which the *driver*
    charges.  Media transfers serialize on whatever the [transmit] hook
    connects to (link or switch).

    The receive side auto-DMAs the first [autodma_words] words of every
    arriving packet into preallocated host buffers and interrupts the host
    (§2.2); packets that fit entirely are complete, larger ones leave the
    tail in network memory for later SDMA copy-out. *)

type t

(** What an interrupt reports. *)
type intr =
  | Sdma_done of int  (** cookie passed with a flagged SDMA request *)
  | Rx_packet of rx_info

and rx_info = {
  rx_pkt : Netmem.packet;
  rx_head : Bytes.t;  (** auto-DMA'd prefix, host memory *)
  rx_head_len : int;
  rx_total_len : int;
  rx_engine_sum : Inet_csum.sum;
      (** sum over [4 * rx_csum_start_words, len) computed off the media *)
  rx_complete : bool;  (** whole packet landed in the auto-DMA buffer *)
  rx_channel : int;
}

val create :
  sim:Sim.t ->
  profile:Host_profile.t ->
  name:string ->
  netmem_pages:int ->
  hippi_addr:int ->
  transmit:(Bytes.t -> dst:int -> channel:int -> unit) ->
  unit ->
  t
(** [transmit] is the media hook: wire it to a {!Hippi_link} or
    {!Hippi_switch}.  Use {!deliver} as the receive hook on that fabric. *)

val name : t -> string
val hippi_addr : t -> int
val netmem : t -> Netmem.t
val sim : t -> Sim.t
val profile : t -> Host_profile.t

val set_interrupt_handler : t -> (intr -> unit) -> unit
(** The driver's interrupt entry point.  Called in "hardware context": the
    handler is responsible for charging interrupt CPU time.  Notifications
    are delivered in coalesced bursts (NAPI-style): events queue on the
    adaptor and the handler runs once per burst, invoked per event unless
    a batch handler is installed with {!set_batch_interrupt_handler}. *)

val set_batch_interrupt_handler : t -> (intr list -> unit) -> unit
(** Burst-aware entry point: receives each delivery burst whole — at most
    {!intr_budget} events, in raise order — so the driver can charge one
    interrupt entry for the lot.  Takes precedence over the per-event
    handler. *)

val set_intr_budget : t -> int -> unit
(** Maximum events delivered per burst (default 64).  A larger budget
    coalesces harder; [1] degenerates to one interrupt per event. *)

val intr_budget : t -> int

val set_autodma_words : t -> int -> unit
(** The host-selectable L of §2.2 (default 176 words = 704 bytes, the
    paper's mbuf-sized prefix). *)

val autodma_words : t -> int

val set_rx_pipe_depth : t -> int -> unit
(** Descriptor slots on the copy-out engine (default 4): at most this
    many copy-out posts are outstanding on the engine at once; excess
    posts park FIFO (counted as pipeline stalls) and start as
    completions free slots. *)

val rx_pipe_depth : t -> int

(** {1 Transmit} *)

val tx_alloc : t -> len:int -> Netmem.packet option
(** Reserve a page-aligned outboard buffer for a fully formed packet. *)

(** Source of an SDMA transfer into network memory. *)
type tx_src =
  | From_user of Region.t  (** DMA directly out of an application buffer *)
  | From_kernel of Bytes.t  (** DMA out of kernel mbuf storage *)
  | From_mbuf of { buf : Bytes.t; off : int; len : int }
      (** DMA out of a window of mbuf storage in place — no staging copy.
          The buffer must stay alive and unmodified until the transfer
          commits (mbuf storage is never recycled, so capturing it at
          enqueue time is safe). *)

val sdma_header :
  t ->
  Netmem.packet ->
  header:Bytes.t ->
  csum:Csum_offload.tx option ->
  ?cookie:int ->
  ?interrupt:bool ->
  ?on_complete:(unit -> unit) ->
  unit ->
  unit
(** DMA the packet's headers into the front of the outboard buffer.  When
    [csum] is given, the transmit checksum engine sums the header range
    from [csum.skip_bytes] (the seed is already in the field).  Word
    alignment of the header length is required. *)

val sdma_payload :
  t ->
  Netmem.packet ->
  src:tx_src ->
  pkt_off:int ->
  ?cookie:int ->
  ?interrupt:bool ->
  ?on_complete:(unit -> unit) ->
  unit ->
  unit
(** DMA payload bytes into the outboard buffer at [pkt_off] (word aligned).
    The checksum engine accumulates the body sum when the packet has an
    offload record. *)

(** One element of a chained SDMA post. *)
type chain_seg =
  | Seg_header of {
      len : int;
      fill : Bytes.t -> unit;
      csum : Csum_offload.tx option;
    }
      (** [len] header bytes (word aligned).  [fill] writes them into the
          front of the packet buffer when the chain commits, so a driver
          can gather the header straight from its own storage; it runs
          once per commit, again if a stalled chain is reposted. *)
  | Seg_payload of {
      src : tx_src;
      pkt_off : int;
      on_seg_complete : (unit -> unit) option;
    }

val sdma_chain :
  t ->
  Netmem.packet ->
  segs:chain_seg list ->
  ?cookie:int ->
  ?interrupt:bool ->
  ?on_complete:(unit -> unit) ->
  unit ->
  unit
(** Batched SDMA: post a whole descriptor chain with one doorbell.  The
    chain occupies the TurboChannel once (for the sum of the per-segment
    transfer costs — chaining merges control events, it does not shortcut
    the bus), commits its segments in list order, and raises at most one
    completion notification for the burst.  Put the header segment first:
    it installs the checksum-offload record the payload commits consult.
    Alignment rules are those of {!sdma_header} / {!sdma_payload}. *)

val tx_rewrite_header :
  t ->
  Netmem.packet ->
  header:Bytes.t ->
  csum:Csum_offload.tx option ->
  ?cookie:int ->
  ?interrupt:bool ->
  ?on_complete:(unit -> unit) ->
  unit ->
  unit
(** Retransmission support (§4.3): DMA a fresh header (with a fresh seed)
    over the old one; the saved body sum is reused, the data is not
    touched. *)

val mdma_send :
  t -> Netmem.packet -> dst:int -> channel:int -> keep:bool -> unit
(** Queue the packet for media transmission.  Executes once all
    outstanding SDMAs for the packet have completed; the final checksum is
    folded into the packet just before it leaves.  [keep = false] frees
    the outboard buffer after the media transfer (UDP / raw); [keep =
    true] retains it for retransmission until {!tx_free} (TCP). *)

val tx_free : t -> Netmem.packet -> unit
(** Release a kept packet (e.g. when the TCP acknowledgement arrives). *)

(** {1 Receive} *)

val deliver : t -> Bytes.t -> unit
(** Media receive entry: wire as the rx callback of the link/switch.
    Consumes the frame — once its bytes are in network memory the buffer
    is recycled through {!Bufpool.shared}, so the caller must not touch
    it after handing it over. *)

val sdma_copy_out :
  t ->
  Netmem.packet ->
  off:int ->
  len:int ->
  dst:Netif.copy_dest ->
  ?cookie:int ->
  ?interrupt:bool ->
  ?on_complete:(unit -> unit) ->
  unit ->
  unit
(** Copy received outboard data to the host ([off] is relative to the
    start of the packet).  Word alignment of [off] and of the user
    destination address is required — the §4.5 restriction.

    Copy-outs ride a dedicated engine, independent of the auto-DMA /
    checksum-verify channel that lands arriving heads: the copy-out of
    packet [n] overlaps the DMA+verify of packet [n+1].  At most
    {!rx_pipe_depth} posts are outstanding on the engine; excess posts
    park FIFO and are started by completions. *)

val rx_free : t -> Netmem.packet -> unit

(** {1 Fault injection and recovery}

    Two fault sites live on the adaptor:

    - ["cab.sdma_stall"], consulted by {!sdma_chain} and
      {!sdma_copy_out}: the post is accepted (the descriptor counts
      against [sdma_pending]) but never occupies the bus, never commits
      and never completes — a stuck descriptor.  The driver detects it
      with {!stalled_posts} from a completion-timeout watchdog, reclaims
      it with {!clear_stall} and reposts.
    - ["cab.lost_intr"], consulted when an interrupt would be scheduled:
      the event stays queued but no delivery is scheduled.  Any later
      interrupt — or an explicit {!poll} — drains stranded events. *)

val stalled_posts : t -> Netmem.packet -> int
(** Outstanding posts for [packet] that the (injected) hardware lost —
    the status-register read a timeout handler does before deciding the
    descriptor is stuck rather than merely slow. *)

val clear_stall : t -> Netmem.packet -> unit
(** Reclaim {e one} stalled post of [packet]: its [sdma_pending] share is
    released without committing anything, so the caller can repost.  A
    queued {!mdma_send} request stays queued (it executes when the
    reposted transfer completes).  One post per call, so concurrent
    watchdogs on the same packet each pair one reclaim with one repost.
    No-op if nothing is stalled. *)

val pending_events : t -> int
(** Notifications queued on the adaptor but not yet delivered. *)

val poll : t -> int
(** Lost-interrupt watchdog entry: schedule a delivery burst if events
    are pending and none is scheduled.  Returns the number of pending
    events found (0 = nothing stranded). *)

(** {1 Statistics} *)

type stats = {
  sdma_transfers : int;  (** individual segments moved (chains count each) *)
  sdma_bytes : int;
  sdma_chains : int;  (** chained posts ({!sdma_chain} doorbells) *)
  mdma_packets : int;
  mdma_bytes : int;
  rx_packets : int;
  rx_bytes : int;
  rx_dropped : int;  (** network memory exhausted *)
  interrupts : int;  (** delivery bursts (handler invocations) *)
  intr_events : int;  (** individual notifications across all bursts *)
  sdma_stalled : int;  (** injected stuck descriptors *)
  intr_lost : int;  (** injected lost interrupts *)
  tx_recoveries : int;  (** {!clear_stall} reclaims *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val bus_busy_time : t -> Simtime.t
(** Cumulative tenancy of the tx SDMA channel. *)

val rx_dma_busy_time : t -> Simtime.t
(** Cumulative tenancy of the rx auto-DMA/verify engine. *)

val copyout_busy_time : t -> Simtime.t
(** Cumulative tenancy of the copy-out engine. *)

(** Receive-pipeline counters: copy-out engine occupancy and its overlap
    with the auto-DMA/verify engine. *)
type rx_pipe_stats = {
  rx_pipe_depth : int;  (** configured descriptor-slot bound *)
  rx_pipe_posts : int;  (** copy-out posts accepted by the engine *)
  rx_pipe_hwm : int;  (** outstanding-post high-water mark *)
  rx_pipe_overlap : int;
      (** copy-out completions at an instant when the auto-DMA/verify
          engine was mid-transfer on another packet — the pipeline's
          concurrency witness *)
  rx_pipe_stalls : int;  (** posts parked because all slots were busy *)
}

val rx_pipe_stats : t -> rx_pipe_stats
