(** User-level datagram sockets with copy semantics.

    The paper's single-copy machinery applies to UDP exactly as to TCP
    (§4.3 discusses the checksum-engine details): a large, word-aligned
    send on a single-copy route goes out as an M_UIO descriptor — the data
    is DMAed straight from the application buffer with the checksum
    computed by the adaptor — and the call completes when the DMA has made
    the kernel's copy.  Small, misaligned, or fragmented datagrams take
    the copying path, and so does a send whose buffer the kernel will not
    wire.  Buffers are wired through the address space
    ({!Addr_space.wire}), cached when [paths.use_pin_cache] is set.

    Receives land in a per-socket queue; [recvfrom] copies (or DMAs, for
    outboard tails) the next datagram into the caller's buffer,
    truncating like a real datagram socket. *)

type t

type dgram_stats = private {
  mutable sent : int;
  mutable sent_uio : int;  (** single-copy sends *)
  mutable sent_copy : int;
  mutable send_errors : int;
  mutable received : int;
  mutable rx_copyouts : int;  (** outboard segments moved by the engine *)
  mutable rx_kernel_copies : int;  (** segments host-copied to the app *)
  mutable pin_fallbacks : int;
      (** single-copy sends degraded to the copying path, and copy-outs
          degraded to kernel staging, because the buffer would not pin
          (fault site ["vm.pin_fail"]) *)
  mutable truncated : int;  (** datagrams longer than the receive buffer *)
  mutable queue_drops : int;  (** receive-queue overflow *)
}

val create :
  host:Host.t ->
  space:Addr_space.t ->
  proc:string ->
  ?paths:Socket.path_config ->
  udp:Udp.t ->
  ip:Ipv4.t ->
  port:int ->
  unit ->
  t
(** Binds [port].  The receive queue holds 64 datagrams; later
    arrivals are dropped (counted in [queue_drops]) until a read makes
    room. *)

val sendto : t -> Region.t -> dst:Udp.endpoint -> (unit -> unit) -> unit
(** Copy-semantics send; the continuation runs when the buffer may be
    reused.  Send failures (no route, oversize) are counted in the stats
    and still continue. *)

val recvfrom : t -> Region.t -> (int -> Udp.endpoint -> unit) -> unit
(** Waits for the next datagram and delivers up to the region's size of
    it. *)

val stats : t -> dgram_stats
(** The socket's live counter record (it keeps counting after the
    call). *)

val close : t -> unit
(** Unbinds the port and discards queued datagrams. *)
