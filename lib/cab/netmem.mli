(** CAB network memory (§2.1, §2.2).

    A bank of DRAM organized in pages that buffers complete packets.  "To
    insure full bandwidth to the media, packets must start on a page
    boundary in CAB memory, and all but the last page must be full pages"
    — so allocation is accounted in whole pages and each packet owns a
    page-aligned region of the bank.  The host buffer that models a
    packet's bytes is sized to the packet, not to its pages: its length
    rounded up to a multiple of 64 bytes, drawn from {!Bufpool.shared}.

    Each packet buffer carries the checksum-engine state that accumulates
    while data is DMAed in: the header-range sum, the saved body sum
    (needed to rebuild the checksum on retransmit without touching the
    data), and the offload record describing where the final checksum
    field lives.

    The packet record is also where the adaptor keeps every other piece
    of per-packet state, so moving a packet through the engines
    allocates nothing beside it: its liveness (the [live] flag, with a
    live count in {!t}) and a media request that waits for outstanding
    SDMAs ({!Cab.mdma_send} fills the [mdma_*] fields and the last SDMA
    completion consumes them). *)

type state =
  | Filling  (** SDMA transfers outstanding *)
  | Ready  (** fully formed, host may queue MDMA *)
  | Receiving  (** arriving from the media *)
  | Held  (** kept for retransmit / awaiting host copy-out *)

type packet = {
  id : int;
  buf : Bytes.t;
      (** storage of the packet's length rounded up to 64 bytes; valid
          data is [0, len) *)
  mutable len : int;
  mutable hdr_len : int;  (** bytes covered by the header SDMA *)
  mutable header_sum : Inet_csum.sum;
  mutable body_sum : Inet_csum.sum;
  mutable csum : Csum_offload.tx option;
  mutable state : state;
  mutable sdma_pending : int;
  pages : int;
  mutable live : bool;  (** allocated and not yet freed *)
  mutable mdma_queued : bool;
      (** a media request is waiting for [sdma_pending] to reach 0 *)
  mutable mdma_dst : int;  (** the queued request's destination, ... *)
  mutable mdma_channel : int;  (** ... its channel ... *)
  mutable mdma_keep : bool;  (** ... and whether it keeps the packet *)
}

type t

exception Double_free of int
(** Raised by {!free} for a packet that is not live — the second free of a
    region would corrupt the free list on real hardware, so it is a typed,
    counted error here (Obs counter [netmem.double_frees]). *)

val create : pages:int -> t
(** Capacity in CAB pages ({!Page.cab_page_size} bytes each). *)

exception Exhausted
(** Raised by {!alloc} when network memory has no room for the packet. *)

val alloc : t -> len:int -> state:state -> packet
(** Page-accounted allocation: the packet takes [len] rounded up to
    whole CAB pages (at least one) of the capacity.  The fault site
    ["netmem.exhaust"] can force an exhaustion (counted both in
    {!failures} and the Obs counter [netmem.injected_exhaustions]).
    @raise Exhausted when memory is exhausted. *)

val free : t -> packet -> unit
(** @raise Double_free if [packet] is not live. *)

val placeholder : packet
(** A packet that is never live, for the adaptor's idle job records. *)

val capacity_pages : t -> int
val free_pages : t -> int
val in_use : t -> int
(** Number of live packets. *)

val failures : t -> int
(** Allocation attempts that failed for lack of space. *)
