(** Host cost profiles.

    Each profile captures the per-byte, per-page and per-packet costs of one
    of the paper's measurement platforms.  The alpha400 numbers are taken
    directly from §7.3 of the paper (copy 350 Mbit/s without locality,
    checksum read 630 Mbit/s, 300 us per-packet overhead, Table 2 VM costs);
    the remaining knobs (interrupt entry, syscall entry, DMA posting,
    effective TurboChannel bandwidth) are calibrated so the measured curves
    of Figure 5 are matched in shape.  alpha300lx is the "about half as
    powerful" Alpha 3000/300LX of Figure 6. *)

type t = {
  name : string;
  page_size : int;  (** host VM page size (8192 on Alpha) *)
  (* --- per-byte costs (bytes/second) --- *)
  copy_bw_nolocal : float;  (** memory-memory copy, cache-cold *)
  copy_bw_cached : float;  (** memory-memory copy, working set in cache *)
  read_bw_nolocal : float;  (** checksum read pass, cache-cold *)
  read_bw_cached : float;
  cache_bytes : int;  (** board-level cache size *)
  (* --- per-packet / per-call costs (microseconds) --- *)
  per_packet_us : float;  (** protocol send/receive path per packet *)
  ack_us : float;  (** processing one ACK segment *)
  intr_us : float;  (** interrupt entry/exit *)
  syscall_us : float;  (** read/write system-call entry *)
  sb_wait_us : float;  (** blocking + wakeup through the socket buffer *)
  (* --- Table 2 VM costs (microseconds, base + per-page) --- *)
  pin_base_us : float;
  pin_page_us : float;
  unpin_base_us : float;
  unpin_page_us : float;
  map_base_us : float;
  map_page_us : float;
  (* --- IO bus (TurboChannel through the TcIA) --- *)
  bus_bw : float;  (** effective DMA bytes/second across the bus *)
  dma_post_us : float;  (** host cost to post one SDMA request *)
  dma_engine_us : float;  (** CAB-side fixed cost per SDMA transfer *)
}

val alpha400 : t
(** DEC Alpha 3000/400 (Figure 5). *)

val alpha300lx : t
(** DEC Alpha 3000/300LX, 125 MHz, half-speed TurboChannel (Figure 6). *)

val smp : t
(** Hypothetical multiprocessor for the RSS-sharding experiments:
    alpha400 per-CPU costs on a fast (non-bottleneck) I/O system, so
    per-packet CPU work limits throughput and sharding scales. *)

val by_name : string -> t option
