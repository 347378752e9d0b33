(** Application (or kernel) address spaces.

    An address space hands out regions of simulated memory at controlled
    virtual addresses and tracks which pages are pinned for DMA.  Pin,
    unpin and map return the CPU cost of the operation (Table 2 of the
    paper); callers charge that cost to the right process on the host CPU.

    Pinning is reference counted per page: overlapping buffers or repeated
    pins of the same page keep it resident until every pin is released. *)

type t

val create : profile:Host_profile.t -> name:string -> t

val name : t -> string
val profile : t -> Host_profile.t

val alloc : t -> ?align:int -> int -> Region.t
(** Allocates a region of the given size.  [align] defaults to the page
    size, matching malloc's behaviour for large blocks (§4.5: "compilers
    and malloc() always align the data structures they allocate"). *)

val alloc_at_offset : t -> page_offset:int -> int -> Region.t
(** Allocates a region whose base is deliberately misaligned by
    [page_offset] bytes into a fresh page — used to exercise the §4.5
    unaligned-access fallback. *)

val pin : t -> Region.t -> Simtime.t
(** Pins every page the region touches; returns the CPU cost
    (35 + 29 n us on the alpha400). *)

val try_pin : t -> Region.t -> (Simtime.t, [ `Pin_exhausted ]) result
(** Fallible pin for datapath callers: the fault site ["vm.pin_fail"]
    models the kernel refusing to wire more pages (resident-set limit,
    fragmentation).  On [Error] nothing is pinned and nothing is charged;
    the caller degrades to the copying path.  Failures are counted in the
    Obs counter [addr_space.pin_failures]. *)

val unpin : t -> Region.t -> Simtime.t
val map_into_kernel : t -> Region.t -> Simtime.t

val is_pinned : t -> Region.t -> bool
(** True when every page of the region is currently pinned. *)

val pinned_pages : t -> int
(** Number of distinct pages currently pinned in this space. *)
