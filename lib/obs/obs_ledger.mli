(** Data-touch ledger.

    Every byte-touching operation on the datapath ([blit],
    [copy_and_sum], standalone checksum passes, legacy flatten) is
    charged to a {!site} — a (layer, path) pair — with an {!op} saying
    whether the bytes were copied, summed, or both at once. From a
    {!snapshot} diff the simulator reports copies-per-byte and
    checksums-per-byte for a run window, which is what makes the paper's
    single-copy claim machine-checkable:

    - single-copy tx (M_UIO): host copies/byte = 0, the only payload
      movement is the [Sdma_payload] DMA (→ copies/byte = 1.0), and host
      checksums/byte = 0 (folded into the DMA).
    - unmodified tx: socket copyin + driver gather ≈ 2 copies/byte plus
      ≈ 1 host checksum/byte.

    Charging happens at call sites, not inside the byte-moving
    primitives, so layer attribution survives code reuse (the same
    [Region.blit_to_bytes] is a socket copyin in one caller and a driver staging
    copy in another). The ledger is always on: {!touch} is two int-array
    adds, no allocation. *)

(** Where bytes were touched. [`Host] sites burn host CPU on payload;
    [`Adaptor] sites are DMA engines / the wire side of the CAB. *)
type site =
  | Sock_tx_copy   (** socket copyin, user → kernel mbuf (host, tx) *)
  | Sock_rx_copy   (** socket read, kernel mbuf → user (host, rx) *)
  | Tcp_tx_csum    (** software transmit checksum pass (host, tx) *)
  | Tcp_rx_csum    (** software verify pass, incl. hw-path header prefix
                       sums (host, rx) *)
  | Tcp_flatten    (** outboard-rescue / legacy flatten (host, tx) *)
  | Drv_tx_header  (** driver gather of protocol-header prefix bytes
                       (host, tx; excluded from payload copy metrics) *)
  | Drv_tx_gather  (** driver gather fallback: payload staged into a
                       contiguous header blob (host, tx) *)
  | Drv_tx_stage   (** unaligned uio piece staged via kernel bounce
                       buffer (host, tx) *)
  | Drv_rx_head    (** auto-DMA'd packet head copied into mbufs
                       (host, rx) *)
  | Drv_rx_stage   (** unaligned copy-out bounce, stage → user
                       (host, rx) *)
  | Sdma_payload   (** SDMA of payload descriptors, user/kernel mem →
                       netmem (adaptor, tx) *)
  | Media          (** MDMA netmem → wire frame (adaptor, tx) *)
  | Rx_engine      (** wire frame → netmem, checksum folded
                       (adaptor, rx) *)
  | Copyout        (** copy-out DMA netmem → host/user memory
                       (adaptor, rx) *)

type op =
  | Copy      (** bytes moved *)
  | Sum       (** bytes read for a checksum *)
  | Copy_sum  (** fused: counts as one copy and one sum *)

val touch : site -> op -> int -> unit
(** [touch site op bytes]: charge [bytes] to [(site, op)]. Hot-path safe:
    one int add. *)

type snapshot

val snapshot : unit -> snapshot
val since : snapshot -> snapshot
(** [since s]: per-cell [now - s], the touches in the window since [s]. *)

val bytes : snapshot -> site -> op -> int

val copied_bytes : snapshot -> site -> int
(** Copy + Copy_sum bytes at a site. *)

(** Derived per-direction aggregates. "Host" excludes [Drv_tx_header]
    (protocol headers, not payload). *)

val host_tx_copy_bytes : snapshot -> int
val host_rx_copy_bytes : snapshot -> int
val host_tx_sum_bytes : snapshot -> int
val host_rx_sum_bytes : snapshot -> int

val tx_copies_per_byte : snapshot -> payload:int -> float
(** (host tx copies + [Sdma_payload] DMA) / payload — 1.0 on the
    single-copy path, ≈2.0 unmodified. *)

val rx_copies_per_byte : snapshot -> payload:int -> float
(** (host rx copies + [Copyout] DMA) / payload. *)

val tx_sums_per_byte : snapshot -> payload:int -> float
val rx_sums_per_byte : snapshot -> payload:int -> float

val report_json : snapshot -> payload:int -> string
(** The headline object: copies/checksums per byte per direction plus the
    raw host/DMA byte totals for a window that moved [payload] bytes. *)
