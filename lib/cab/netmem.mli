(** CAB network memory (§2.1, §2.2).

    A bank of DRAM organized in pages that buffers complete packets.  "To
    insure full bandwidth to the media, packets must start on a page
    boundary in CAB memory, and all but the last page must be full pages"
    — so allocation is in whole pages and each packet owns a page-aligned
    buffer.

    Each packet buffer carries the checksum-engine state that accumulates
    while data is DMAed in: the header-range sum, the saved body sum
    (needed to rebuild the checksum on retransmit without touching the
    data), and the offload record describing where the final checksum
    field lives. *)

type state =
  | Filling  (** SDMA transfers outstanding *)
  | Ready  (** fully formed, host may queue MDMA *)
  | Receiving  (** arriving from the media *)
  | Held  (** kept for retransmit / awaiting host copy-out *)

type packet = {
  id : int;
  buf : Bytes.t;  (** page-rounded storage; valid data is [0, len) *)
  mutable len : int;
  mutable hdr_len : int;  (** bytes covered by the header SDMA *)
  mutable header_sum : Inet_csum.sum;
  mutable body_sum : Inet_csum.sum;
  mutable csum : Csum_offload.tx option;
  mutable state : state;
  mutable sdma_pending : int;
  pages : int;
}

type t

exception Double_free of int
(** Raised by {!free} for a packet that is not live — the second free of a
    region would corrupt the free list on real hardware, so it is a typed,
    counted error here (Obs counter [netmem.double_frees]). *)

val create : pages:int -> t
(** Capacity in CAB pages ({!Page.cab_page_size} bytes each). *)

val alloc : t -> len:int -> state:state -> packet option
(** Page-aligned allocation; [None] when memory is exhausted.  The fault
    site ["netmem.exhaust"] can force an exhaustion (counted both in
    {!failures} and the Obs counter [netmem.injected_exhaustions]). *)

val free : t -> packet -> unit
(** @raise Double_free if [packet] is not live. *)

val capacity_pages : t -> int
val free_pages : t -> int
val in_use : t -> int
(** Number of live packets. *)

val failures : t -> int
(** Allocation attempts that failed for lack of space. *)
