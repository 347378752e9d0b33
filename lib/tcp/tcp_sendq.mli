(** The TCP transmit queue — the paper's modified send buffer (§4.2).

    Holds unacknowledged + unsent data as a sequence of mbuf chains of
    *mixed* types: regular mbufs (small writes, in-kernel senders), M_UIO
    descriptors (large writes before the outboard copy) and M_WCAB
    descriptors (data already in network memory, kept for retransmit).

    "The code that copies a packet's worth of data into an mbuf chain to be
    handed to the driver was replaced by code that searches the transmit
    queue for a block of data at a specific offset" — that search is
    {!range}.  {!replace} swaps a byte range to its M_WCAB form once the
    driver reports the outboard copy done; {!drop} releases acknowledged
    data from the front (running WCAB release hooks, which free the
    adaptor's retransmit buffers). *)

type t

val create : hiwat:int -> t

val length : t -> int
val space : t -> int
(** Bytes that may still be appended before reaching the high-water mark.
    Can be negative-clamped to zero when descriptors overshoot. *)

val append : ?merge_descriptors:bool -> t -> Mbuf.t -> unit
(** Takes ownership of the chain (its pkthdr is dropped).  With
    [merge_descriptors] (default false), a new M_UIO descriptor arriving
    behind a trailing M_UIO chain is linked onto that chain rather than
    starting a new one: consecutive small writes build one symbolic chain
    that packetization can cut full-MSS segments from.  Each descriptor
    keeps its own uiowcab header, so per-write UIO counters still drain
    their own writers. *)

val append_merges_descriptor : t -> Mbuf.t -> bool
(** Whether [append ~merge_descriptors:true] would merge this chain into
    the queue's tail (stats probe; does not modify the queue). *)

val range : t -> off:int -> len:int -> Mbuf.t
(** Share-semantics copy of bytes [off, off+len) — the driver-bound
    payload.  Raises [Invalid_argument] if out of range. *)

val chain_extent : t -> off:int -> Mbuf.kind * int
(** Kind of the mbuf holding byte [off] and the number of bytes from [off]
    to the end of the chain it belongs to.  The single-copy transmit path
    uses this to avoid coalescing across descriptor-mbuf boundaries
    (§7.2: the modified stack "does not coalesce the M_UIO mbufs generated
    by multiple writes into a single packet"). *)

val homogeneous_extent : t -> off:int -> Mbuf.kind * int
(** Kind of the data at [off] and the number of bytes from [off] that can
    be packetized without mixing descriptor and regular storage in one
    packet: a descriptor chain yields its own remaining extent (packets
    never span descriptor-chain boundaries); regular data extends across
    consecutive regular chains up to the first descriptor.  Mixing would
    leave the driver with an unaligned scatter base. *)

val kinds_at : t -> off:int -> len:int -> Mbuf.kind list
(** Storage kinds present in the range (for tests and the driver's
    dispatch). *)

val replace : t -> off:int -> len:int -> Mbuf.t -> unit
(** Replace the byte range with the given chain (same length); the old
    storage is freed. *)

val drop : t -> int -> unit
(** Release [n] bytes from the front (data acknowledged). *)

val clear : t -> unit

val check : t -> (unit, string) result
(** Internal-consistency check for tests. *)
