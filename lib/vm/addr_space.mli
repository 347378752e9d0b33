(** Application (or kernel) address spaces.

    An address space hands out regions of simulated memory at controlled
    virtual addresses and tracks which pages are pinned for DMA.  Every
    space allocates from its own 4 GByte window, so a virtual address
    names the space it came from and buffers of two spaces never share
    one.  Pin,
    unpin and map return the CPU cost of the operation (Table 2 of the
    paper); callers charge that cost to the right process on the host CPU.

    Pinning is reference counted per page: overlapping buffers or repeated
    pins of the same page keep it resident until every pin is released.

    Each space also owns the pinned-buffer cache of §4.4.1: "for
    applications that reuse the same set of buffers repeatedly, this
    overhead can be avoided by keeping the buffers pinned and mapped so
    the overhead is amortized over several IO operations; buffers can be
    unpinned lazily, thus limiting the number of pages that an
    application can have pinned at one time."  The cache is per process:
    every socket whose buffers live in the space shares it.  {!wire} and
    {!unwire} are the one way the datapath makes a user buffer DMA-ready
    and releases it again. *)

type t

val create :
  ?pin_budget:int -> profile:Host_profile.t -> name:string -> unit -> t
(** [pin_budget] bounds the pages the cache keeps wired (default 1024).
    When a miss would exceed it, the least recently used buffers are
    unpinned first. *)

val alloc : t -> ?align:int -> int -> Region.t
(** Allocates a region of the given size.  [align] defaults to the page
    size, matching malloc's behaviour for large blocks (§4.5: "compilers
    and malloc() always align the data structures they allocate").
    Raises [Invalid_argument] when the space outgrows its window. *)

val alloc_at_offset : t -> page_offset:int -> int -> Region.t
(** Allocates a region whose base is deliberately misaligned by
    [page_offset] bytes into a fresh page — used to exercise the §4.5
    unaligned-access fallback. *)

val pin : t -> Region.t -> Simtime.t
(** Pins every page the region touches; returns the CPU cost
    (35 + 29 n us on the alpha400). *)

val unpin : t -> Region.t -> Simtime.t
val map_into_kernel : t -> Region.t -> Simtime.t

val pinned_pages : t -> int
(** Distinct pages of this space pinned now. *)

val uncached_pin_refs : t -> int
(** Page pin references this space holds outside its pinned-buffer
    cache (a page pinned twice counts twice).  A cache that keeps a
    buffer wired is working, not leaking, so a drain check reads this
    instead of flushing the cache. *)

(** {1 Wiring for DMA} *)

val wire : t -> Region.t -> cached:bool -> (Simtime.t, Simtime.t) result
(** Pin and map the region for DMA.  [Ok cost] when it is wired;
    [Error wasted] when the kernel refused the pin (the fault site
    ["vm.pin_fail"], counted in [addr_space.pin_failures]), where
    [wasted] is work already done (cache evictions) before the refusal.
    On [Error] the region is not pinned; the caller degrades to the
    copying path.

    [cached]: a buffer the cache holds is a hit, costs nothing and never
    consults the fault site; a miss evicts down to the budget, then pins,
    maps and keeps the buffer.  Otherwise the region is pinned and mapped
    for this transfer only. *)

val unwire : t -> Region.t -> cached:bool -> Simtime.t
(** Release a {!wire} with the same [cached]: free when cached (the
    buffer stays pinned, unpinned lazily), an unpin otherwise. *)

val is_cached : t -> Region.t -> bool
(** Warmth probe: whether a cached {!wire} would hit.  Does not touch the
    LRU clock, so policy layers can ask without distorting eviction
    order. *)

val cache_hits : t -> int
val cache_misses : t -> int
