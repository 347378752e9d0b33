(** The Gigabit Nectar CAB (Communication Acceleration Board) adaptor
    model (§2 of the paper).

    Structure follows Figure 1: network memory feeds one system DMA engine
    (SDMA, host <-> network memory across the TurboChannel) and media DMA
    engines (MDMA, network memory <-> HIPPI).  Checksums are computed in
    hardware: on transmit while data flows *into* network memory (so the
    result can be placed in the packet header before the media transfer),
    on receive while data flows *off the media* (so it is available as soon
    as the packet is).

    The driver feeds the transmit SDMA engine one way only: descriptor
    chains ({!sdma_chain}), one doorbell each.  A retransmission is a
    chain of one header segment over a packet still held in network
    memory (§4.3).  Notifications reach the host one way only: as
    coalesced bursts through the handler installed with
    {!set_batch_interrupt_handler} (§2.2).

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
    tail in network memory for later SDMA copy-out.

    Allocation: each engine (the tx SDMA channel, the auto-DMA/verify
    engine, the copy-out engine) is a {!Resource} that owns its queued
    jobs, preallocated records filled in place at the post, and one
    completion function installed at {!create} finishes every job.  A
    stalled post queues no job.  Pending notifications
    wait in a ring as well, and a burst is handed over in a reused
    array.  Per-packet state (the queued media request, liveness) lives
    in the {!Netmem.packet}.  What a post allocates is what the caller
    hands in (the segment list, the completion); what a received frame
    allocates, through its interrupt burst, is its packet record and its
    {!Rx_packet} event. *)

type t

(** What an interrupt reports. *)
type intr =
  | Sdma_done  (** a flagged ([~interrupt:true]) SDMA request completed *)
  | Rx_packet of rx_info

and rx_info = {
  rx_pkt : Netmem.packet;
  rx_head : Bytes.t;  (** auto-DMA'd prefix, host memory *)
  rx_head_len : int;
  rx_total_len : int;
  rx_complete : bool;  (** whole packet landed in the auto-DMA buffer *)
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

val set_batch_interrupt_handler : t -> (intr array -> int -> unit) -> unit
(** The interrupt entry point.  Notifications are delivered in coalesced
    bursts (NAPI-style): events queue on the adaptor and the handler
    receives each burst whole — [f burst n] is handed events
    [burst.(0)] to [burst.(n - 1)], at most 64, in raise order — so the
    driver can charge one interrupt entry for the lot.  The array is the
    adaptor's and is reused by the next burst: a handler that defers the
    work copies the events it keeps.  Called in "hardware context": the
    handler is responsible for charging interrupt CPU time.  The latest
    installed handler wins, so an application can take the adaptor over
    from the driver. *)

val set_autodma_words : t -> int -> unit
(** The host-selectable L of §2.2 (default 176 words = 704 bytes, the
    paper's mbuf-sized prefix). *)

(** {1 Transmit} *)

val tx_alloc : t -> len:int -> Netmem.packet
(** Reserve a page-aligned outboard buffer for a fully formed packet.
    @raise Netmem.Exhausted when network memory is full. *)

(** Source of a payload transfer into network memory. *)
type tx_src =
  | From_user of Region.t
      (** DMA directly out of an application buffer (word-aligned user
          address required) *)
  | From_kernel of { buf : Bytes.t; off : int; len : int }
      (** DMA out of a window of kernel storage (mbuf storage or a
          staging buffer) in place — no staging copy.  The buffer must
          stay alive and unmodified until the transfer commits. *)

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
          once per commit, again if a stalled chain is reposted.  When
          [csum] is given, the transmit checksum engine sums the header
          from [csum.skip_bytes] (the seed is already in the field). *)
  | Seg_payload of {
      src : tx_src;
      pkt_off : int;
      on_seg_complete : (unit -> unit) option;
    }
      (** Payload bytes landing at [pkt_off] (word aligned).  The checksum
          engine accumulates the body sum when the packet has an offload
          record. *)

val sdma_chain :
  t ->
  Netmem.packet ->
  segs:chain_seg list ->
  interrupt:bool ->
  on_complete:(unit -> unit) ->
  unit
(** The transmit SDMA entry: post a whole descriptor chain with one
    doorbell.  The chain occupies the TurboChannel once (for the sum of
    the per-segment transfer costs — chaining merges control events, it
    does not shortcut the bus), commits its segments in list order, then
    calls [on_complete] and, when [interrupt], raises one completion
    notification for the burst.  Put the header segment first: it
    installs the checksum-offload record the payload commits consult.
    The post itself allocates nothing: the chain waits in a preallocated
    job slot until the bus reaches it.

    Retransmission (§4.3): on a packet {!mdma_send} kept for retransmit,
    the chain must be one header segment of the held header length.  It
    writes a fresh header (with a fresh seed) over the old one; the saved
    body sum is reused and the data is not touched. *)

val mdma_send :
  t -> Netmem.packet -> dst:int -> channel:int -> keep:bool -> unit
(** Queue the packet for media transmission.  Executes once all
    outstanding SDMAs for the packet have completed; the final checksum is
    folded into the packet just before it leaves.  [keep = false] frees
    the outboard buffer after the media transfer (UDP / raw); [keep =
    true] retains it for retransmission until {!free} (TCP).  A
    request that waits is kept in the packet's [mdma_*] fields, so a
    packet has at most one.
    @raise Invalid_argument if the packet already has a request waiting. *)

val free : t -> Netmem.packet -> unit
(** Release a packet's network memory: a kept transmit packet (e.g. when
    the TCP acknowledgement arrives) or a received one. *)

(** {1 Receive} *)

val deliver : t -> Bytes.t -> unit
(** Media receive entry: wire as the rx callback of the link/switch.
    Consumes the frame as network memory: it becomes the received
    packet's buffer ({!Netmem.adopt}), no byte of it copied, and {!free}
    recycles it through {!Bufpool.shared}; when network memory is
    exhausted the frame is dropped and recycled at once.  Either way the
    caller must not touch it after handing it over. *)

val rx_engine_sum : rx_info -> Inet_csum.sum
(** The receive checksum engine's sum over
    [\[4 * Hippi_framing.rx_csum_start_words, rx_total_len)] of the
    packet ({!Inet_csum.zero} when the packet is no longer than that
    start).  The engine sums the words as they stream off the media
    (§2.1), and the ledger counts that pass at {!deliver}; the model
    computes the sum from the packet's bytes here, where it is read, so
    a stack that never reads it makes no host pass over received data.
    @raise Invalid_argument if the packet has been freed: its buffer may
    already hold another packet. *)

val sdma_copy_out :
  t ->
  Netmem.packet ->
  off:int ->
  len:int ->
  dst:Netif.copy_dest ->
  interrupt:bool ->
  on_complete:(unit -> unit) ->
  unit
(** Copy received outboard data to the host ([off] is relative to the
    start of the packet).  Word alignment of [off] and of the user
    destination address is required — the §4.5 restriction.

    Copy-outs ride a dedicated engine, independent of the auto-DMA /
    checksum-verify channel that lands arriving heads: the copy-out of
    packet [n] overlaps the DMA+verify of packet [n+1].  The engine has
    four descriptor slots: at most four posts are outstanding on it at
    once; excess posts park FIFO (counted as pipeline stalls) and are
    started by completions. *)

(** {1 Fault injection and recovery}

    Two fault sites live on the adaptor:

    - ["cab.sdma_stall"], consulted by every transmit post
      ({!sdma_chain}) and {!sdma_copy_out}: the post is accepted (the
      descriptor counts against [sdma_pending]) but never occupies the
      bus, never commits and never completes — a stuck descriptor.  The driver detects it
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

type stats = private {
  mutable sdma_transfers : int;
      (** individual segments moved (chains count each) *)
  mutable sdma_bytes : int;
  mutable sdma_chains : int;
      (** transmit doorbells: every {!sdma_chain} post, header rewrites
          included *)
  mutable mdma_packets : int;
  mutable mdma_bytes : int;
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable rx_dropped : int;  (** network memory exhausted *)
  mutable interrupts : int;  (** delivery bursts (handler invocations) *)
  mutable intr_events : int;  (** individual notifications across all bursts *)
  mutable sdma_stalled : int;  (** injected stuck descriptors *)
  mutable intr_lost : int;  (** injected lost interrupts *)
  mutable tx_recoveries : int;  (** {!clear_stall} reclaims *)
}

val stats : t -> stats
(** The adaptor's live counter record (it keeps counting after the
    call). *)

val pp_stats : Format.formatter -> stats -> unit

(** Receive-pipeline counters: copy-out engine occupancy and its overlap
    with the auto-DMA/verify engine. *)
type rx_pipe_stats = private {
  rx_pipe_depth : int;  (** descriptor slots on the copy-out engine (4) *)
  mutable rx_pipe_posts : int;  (** copy-out posts accepted by the engine *)
  mutable rx_pipe_hwm : int;  (** outstanding-post high-water mark *)
  mutable rx_pipe_overlap : int;
      (** copy-out completions at an instant when the auto-DMA/verify
          engine was mid-transfer on another packet — the pipeline's
          concurrency witness *)
  mutable rx_pipe_stalls : int;  (** posts parked because all slots were busy *)
}

val rx_pipe_stats : t -> rx_pipe_stats
(** The adaptor's live receive-pipeline record. *)
