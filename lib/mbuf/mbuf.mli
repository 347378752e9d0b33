(** BSD-style mbufs, extended with the paper's descriptor types.

    Data travels through the stack in three formats (§4.2):

    - regular mbufs: small internal buffers and 2 KByte clusters holding
      real bytes in kernel memory;
    - [M_UIO] mbufs: external mbufs *describing* data still in an
      application's address space (transmit before the outboard copy,
      receive for the read target);
    - [M_WCAB] mbufs: external mbufs describing data resident in CAB
      network memory (retransmit buffers on transmit, large packets on
      receive).

    A UIO mbuf carries the notify block of the write it describes (the
    [uiowCABhdr] of §4.2), used to resynchronize the socket layer with
    asynchronous DMA (§4.4.2).  The checksum-offload record travels in
    the packet header ([pkthdr.tx_csum]).

    Host protocol code must never read payload bytes out of a WCAB mbuf —
    the data is outboard.  The accessors that touch data ([copy_into],
    [checksum], …) raise [Outboard_data] if the range covers a WCAB mbuf;
    only the CAB driver's copy-in/copy-out routines (which charge DMA
    costs) may move that data. *)

exception Outboard_data
(** Raised when host code attempts to touch data that lives in network
    memory. *)

(** Notify block connecting driver DMA completions back to the socket
    layer.  [dma_pending] is the paper's "UIO counter". *)
type notify = {
  mutable dma_pending : int;
  mutable on_drained : unit -> unit;  (** called when the count reaches 0 *)
}

val make_notify : unit -> notify
val notify_add : notify -> int -> unit
val notify_complete_n : notify -> int -> unit
(** Decrements by [n], clamped at zero (a retransmit may complete a range
    twice); runs [on_drained] on the transition to zero. *)

(** Descriptor for data in CAB network memory.  [wcab_bytes] is simulator
    plumbing shared with the adaptor model — host-side stack code must go
    through the driver to move it. *)
type wcab_desc = {
  wcab_id : int;
  wcab_bytes : Bytes.t;
  wcab_base : int;  (** offset of this mbuf's first byte in [wcab_bytes] *)
  wcab_valid : int;  (** §4.2: how much outboard data is valid *)
  wcab_free : unit -> unit;
  wcab_refs : int ref;
      (** share count across mbufs (retransmit copies); [wcab_free] runs
          when it drops to zero *)
}

(** Refcounted host buffer: cluster storage is shared by
    [copy_range]/[split], and a driver may pin it across an asynchronous
    DMA ([retain_storage]); the buffer returns to the free list only when
    the last reference drops. *)
type cell = { cbuf : Bytes.t; mutable refs : int }

type storage =
  | Internal of cell
  | Cluster of cell
  | Ext_uio of Region.t
  | Ext_wcab of wcab_desc

type pkthdr = {
  mutable pkt_len : int;
  mutable rcvif : string option;
  mutable rx_csum : Csum_offload.rx option;
      (** receive-side hardware checksum info travelling with the packet *)
  mutable tx_csum : Csum_offload.tx option;
      (** transmit-side offload record, field offsets relative to the
          transport segment; single-copy drivers translate to packet
          offsets and program the checksum engine with it *)
  mutable on_outboard : (wcab_desc -> unit) option;
      (** transmit side: called by a single-copy driver once the packet's
          payload has been copied into network memory, so the transport
          layer can swap its retransmit buffers to M_WCAB (§4.2) *)
}

type t = {
  mutable storage : storage;
  mutable off : int;  (** first valid byte within the storage *)
  mutable len : int;  (** valid bytes *)
  mutable next : t option;
  mutable pkthdr : pkthdr option;
  mutable notify : notify option;
      (** M_UIO: the notify block of the write this mbuf describes *)
}

(** {1 Construction}

    Chains are built of 256-byte internal buffers and 2048-byte
    clusters. *)

val of_string : ?pkthdr:bool -> string -> t
(** Chain of internal/cluster mbufs holding a copy of the string (blitted
    directly into chain storage, no intermediate buffer). *)

val of_bytes : ?pkthdr:bool -> ?off:int -> ?len:int -> Bytes.t -> t
(** Chain holding a copy of [src[off, off+len)] (default: all of [src]). *)

val of_region : Region.t -> off:int -> len:int -> t
(** Packet-headed chain holding a copy of [region[off, off+len)], blitted
    straight into pooled chain storage (no intermediate buffer). *)

val contiguous : int -> t * Bytes.t
(** [contiguous n] is one cluster mbuf of [n] uninitialized bytes and its
    storage, whose bytes [0, n) are the mbuf's data — a landing zone for a
    DMA that must stay one contiguous mbuf.  The storage is pooled: the
    mbuf pool's for the internal and cluster sizes, [Bufpool.shared] (keyed by exact
    size) otherwise; freeing the mbuf returns it there. *)

val alloc : ?pkthdr:bool -> int -> t
(** Zero-filled chain of the given total length. *)

val make_uio : region:Region.t -> notify:notify option -> t
(** A packet-headed M_UIO mbuf describing [region], a user buffer the
    socket layer has wired ([Addr_space.wire]); [notify] is credited as
    the driver copies it out. *)

val make_wcab : desc:wcab_desc -> len:int -> t
(** A packet-headed M_WCAB mbuf of [len] payload bytes. *)

(** {1 Inspection} *)

type kind = K_internal | K_cluster | K_uio | K_wcab

val kind : t -> kind
val is_descriptor : t -> bool
(** True for UIO and WCAB mbufs. *)

val chain_len : t -> int
(** Sum of [len] over the chain. *)

val pkt_len : t -> int
(** From the packet header; raises [Invalid_argument] if absent. *)

val has_pkthdr : t -> bool
val set_rcvif : t -> string -> unit
val rcvif : t -> string option

val chain_kinds : t -> kind list
val iter : (t -> unit) -> t -> unit
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

val check_invariants : t -> (unit, string) result
(** pkthdr length equals chain length; offsets/lengths in range. *)

(** {1 Data access (host-readable storage only)} *)

val copy_into : t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** Copies chain bytes [off, off+len) into a host buffer.  Raises
    [Outboard_data] when the range touches a WCAB mbuf; reads through to
    user memory for UIO mbufs (the host *can* read user data, it is just
    expensive — the caller accounts for the cost). *)

val copy_into_csum : t -> off:int -> len:int -> Bytes.t -> dst_off:int -> Inet_csum.sum
(** Like [copy_into], fused with the ones-complement sum of the bytes
    copied (see {!Inet_csum.copy_and_sum}): one pass over the data instead
    of a copy followed by a checksum pass.  Odd-length parity across mbuf
    boundaries is handled as in {!checksum}. *)

val view : t -> off:int -> len:int -> (Bytes.t * int) option
(** [view m ~off ~len] is [Some (buf, pos)] when chain bytes
    [off, off+len) are contiguous in host-readable storage, such that byte
    [off + i] is [Bytes.get buf (pos + i)].  Zero-copy; [None] when the
    range spans a segment boundary or lives outboard.  The buffer is the
    real backing store — callers must not write through it and must stay
    within the window. *)

val copy_from : t -> off:int -> len:int -> Bytes.t -> src_off:int -> unit
(** Writes into chain storage.  Raises [Outboard_data] on WCAB ranges. *)

val copy_into_raw : t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** Like [copy_into] but reads through M_WCAB storage.  Simulator plumbing
    for drivers and recovery paths (e.g. copying outboard data back after
    a route change) that model the transfer cost themselves — ordinary
    protocol code must use [copy_into]. *)

val to_string : t -> string
(** The whole chain's data ([copy_into] of everything). *)

val checksum : t -> off:int -> len:int -> Inet_csum.sum
(** Ones-complement sum over a chain range, with correct odd-length
    parity across mbuf boundaries.  Raises [Outboard_data] on WCAB. *)

(** {1 Chain surgery} *)

val append : t -> t -> unit
(** [append a b] links chain [b] after the last mbuf of [a] and updates
    [a]'s pkthdr.  [b]'s pkthdr, if any, is dropped. *)

val prepend : t -> int -> t
(** [prepend m n] returns a chain with [n] bytes of fresh header space in
    front of [m] (BSD's M_PREPEND): uses leading space in [m]'s first
    buffer when available and host-readable, else links a new internal
    mbuf.  The returned head carries [m]'s pkthdr (length updated). *)

val copy_range : t -> off:int -> len:int -> t
(** BSD m_copym with share semantics: descriptor and cluster storage is
    shared, internal buffers are copied.  The result has a fresh pkthdr.
    [len = -1] means "to the end of the chain". *)

val adj_head : t -> int -> unit
(** Trim [n] bytes from the front of the chain (m_adj).  Keeps empty
    leading mbufs out of the chain where possible. *)

val adj_tail : t -> int -> unit

val pullup : t -> int -> t
(** Ensure the first [n] bytes are contiguous and host-readable in the
    head mbuf; returns the (possibly new) head.  Raises [Outboard_data] if
    those bytes live outboard, [Invalid_argument] if the chain is shorter
    than [n]. *)

val split : t -> int -> t * t
(** [split m n] divides the chain at byte [n]: descriptor/cluster storage
    is shared, not copied.  Both halves get packet headers. *)

val free : t -> unit
(** Releases the whole chain: runs WCAB release hooks, returns internal
    and cluster buffers to the storage pool's free lists. *)

val retain_storage : t -> unit -> unit
(** Pin the head mbuf's host storage across an asynchronous transfer
    (e.g. a driver's zero-copy DMA capture).  Returns the release
    closure; until it runs, freeing the chain will not recycle the
    bytes.  No-op closure for descriptor storage. *)

(** {1 Storage pool}

    Free lists of recycled [Internal]/[Cluster] buffers keep the
    steady-state datapath allocation-free.  Only internal- and
    cluster-sized buffers live here; odd sizes (oversize [prepend]/[pullup]
    heads, {!contiguous} storage) are drawn from and returned to
    [Bufpool.shared].  There is one free list of each size for
    the whole process, shared by every host and shard: pool residency
    costs no simulated time, so a per-shard list would change only the
    hit statistics.  The [mbuf_pool] registry section publishes the
    live counts, fresh allocations and free-list depths. *)

module Pool : sig
  val hit_count : unit -> int
  val miss_count : unit -> int

  val hit_rate : unit -> float
  (** hits / (hits + misses), 0 when no requests yet. *)

  val hwm : unit -> int
  (** High-water mark of live mbufs. *)

  val reset : unit -> unit
  (** Zero the gauges and counters.  Keeps the free lists (so tests can
      reset statistics without discarding a warm pool). *)
end
