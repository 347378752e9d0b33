(** Pinned-buffer cache with lazy unpinning (§4.4.1).

    "For applications that reuse the same set of buffers repeatedly, this
    overhead can be avoided by keeping the buffers pinned and mapped so the
    overhead is amortized over several IO operations; buffers can be
    unpinned lazily, thus limiting the number of pages that an application
    can have pinned at one time."

    [acquire] returns the CPU cost of making the buffer DMA-ready: zero
    work on a hit, pin+map on a miss.  [release] is free — the buffer stays
    pinned in the cache.  When the pinned-page budget is exceeded the least
    recently used buffer is unpinned (and that unpin cost is charged to the
    operation that caused the eviction). *)

type t

val create : space:Addr_space.t -> max_pages:int -> t

val acquire : t -> Region.t -> Simtime.t
(** Cost of ensuring the region is pinned and mapped. *)

val try_acquire :
  t -> Region.t -> (Simtime.t, [ `Pin_exhausted of Simtime.t ]) result
(** Fallible [acquire] for datapath callers.  Hits never fail (the buffer
    is already wired).  On a miss the pin may fail at the
    ["vm.pin_fail"] fault site; the [Error] carries the eviction cost
    already incurred (the kernel freed pages before refusing to wire the
    new buffer), the entry is {e not} inserted, and the caller is expected
    to degrade to the copying path.  Failures are counted per-instance
    ({!pin_failures}) and in the Obs counter [pin_cache.pin_failures]. *)

val release : t -> Region.t -> Simtime.t
(** Lazy: returns zero cost and leaves the buffer pinned. *)

val is_resident : t -> Region.t -> bool
(** Warmth probe: whether [acquire] would hit without any pin/map work.
    Does not touch the LRU clock, so policy layers can ask without
    distorting eviction order. *)

val flush : t -> Simtime.t
(** Unpins everything; returns the total unpin cost. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val resident_pages : t -> int
