(** Memory-system cost model.

    Converts byte counts into CPU time using a host profile and a
    working-set-aware cache model.  The cache model reproduces the effect
    the paper observes in §7.2: intermediate write sizes (~64 KByte) are
    slightly *more* efficient than very large ones because the working set
    partially fits in the board cache. *)

type locality = Cold | Working_set of int
(** [Cold]: no reuse (streaming through a large buffer).
    [Working_set n]: the workload cycles through [n] bytes of buffer. *)

(** {!copy} and {!checksum_read} blend the cached and cache-cold
    bandwidths: fully cached when the working set fits in a quarter of
    the cache; fully cold once it fills the cache; linear in between. *)

val copy : Host_profile.t -> locality:locality -> int -> Simtime.t
(** CPU time to memory-memory copy [n] bytes. *)

val checksum_read : Host_profile.t -> locality:locality -> int -> Simtime.t
(** CPU time for a checksum pass over [n] bytes. *)

val copy_with_checksum : Host_profile.t -> locality:locality -> int -> Simtime.t
(** Single fused copy+checksum pass (Table 1's COPY_C); cheaper than a copy
    followed by a separate read because the data is touched once. *)

val per_packet : Host_profile.t -> Simtime.t
val ack : Host_profile.t -> Simtime.t
val interrupt : Host_profile.t -> Simtime.t
val syscall : Host_profile.t -> Simtime.t
val sb_wait : Host_profile.t -> Simtime.t

val pin : Host_profile.t -> pages:int -> Simtime.t
(** Table 2: pin = 35 + 29 n microseconds on the alpha400. *)

val unpin : Host_profile.t -> pages:int -> Simtime.t
val map : Host_profile.t -> pages:int -> Simtime.t

val dma_post : Host_profile.t -> Simtime.t
(** Host CPU cost to post one SDMA request to the adaptor. *)

val bus_transfer : Host_profile.t -> int -> Simtime.t
(** Bus occupancy (not CPU time) to DMA [n] bytes across the IO bus,
    including the per-transfer engine cost. *)
