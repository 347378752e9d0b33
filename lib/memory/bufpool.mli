(** Exact-size-classed free lists of host byte buffers.

    The steady-state datapath allocates the same few buffer sizes over
    and over (network-memory packet buffers are multiples of 64 bytes,
    driver staging buffers are MTU-sized).  In OCaml any buffer
    over 2 KBytes goes straight to the major heap, so per-packet
    [Bytes.create] turns into GC pressure that dwarfs the data-touching
    cost the paper is trying to expose.  A [Bufpool.t] recycles buffers
    by exact length: [put] files a buffer under its size class, [get]
    pops one of the same length or allocates on a miss.  Each size class
    keeps at most 64 free buffers; surplus [put]s are dropped to the GC.

    Recycled buffers hold stale data — callers overwrite the range they
    use (packet buffers are filled by DMA before any byte is read). *)

type t

val get : t -> int -> Bytes.t
(** [get t n] is a buffer of exactly [n] bytes, recycled when the size
    class has one free.  Contents are unspecified. *)

val put : t -> Bytes.t -> unit
(** Return a buffer to its size class.  The caller must not touch the
    buffer afterwards. *)

val hit_count : t -> int
val miss_count : t -> int

val hit_rate : t -> float
(** hits / (hits + misses), 0 when no requests yet. *)

val reset_stats : t -> unit
(** Zero the counters; keeps the free lists. *)

val shared : t
(** The one process-wide instance, used by the simulator datapath
    (network memory, driver staging) of every host and shard. *)
