(** Stream sockets with copy semantics over TCP (§4.4).

    The API is continuation-passing because reads and writes block in a
    discrete-event world: [write sock region k] calls [k] once the kernel
    has *a copy* of the data — either in kernel buffers (traditional path)
    or safely DMAed outboard (single-copy path, synchronized through the
    UIO counter of §4.4.2).  [read sock region k] calls [k n] once [n > 0]
    bytes have landed in the user's buffer, or [k 0] at end of stream.

    Path selection per write (§4.4.3, §4.5): the single-copy (M_UIO) path
    is taken when the stack and the route's interface support it, the
    write is at least {!Path_policy.static_cutover} bytes (16 KByte, the
    measured crossover) or [force_uio] is set (as in the paper's Figure 5
    runs), and the user buffer is word aligned.  Everything else falls
    back to copying through kernel mbufs.

    VM work (§4.4.1): on the UIO path the socket layer — which runs in
    process context — maps the buffer into kernel space and pins it,
    charging Table 2 costs, through {!Addr_space.wire}.  The address
    space's pinned-buffer cache amortizes the cost for applications that
    reuse buffers, across every socket of the process.  Unpinning is lazy
    when the cache is enabled, immediate otherwise.

    Per-call state: the socket keeps its one read and its one copy-route
    write (which holds the stream-order lock until it completes) in its
    own fields, with continuations built once when the socket is created:
    a read allocates no closure, and a copy-route write only the one that
    may wait for the stream-order lock.  A
    finished call keeps no reference to the caller's buffer or
    continuation: both are dropped before the continuation runs. *)

type path_config = {
  force_uio : bool;
      (** always take the single-copy path (paper's measurement setup) *)
  use_pin_cache : bool;
      (** keep buffers pinned in the address space's pinned-buffer cache
          (1024-page budget, shared by every socket on the space) instead
          of unpinning after every transfer *)
  align_fixup : bool;
      (** §4.5's unimplemented optimization, implemented here: when a
          large write is misaligned, send the sub-word head through the
          copying path so the bulk can still be DMAed.  "This might pay
          off for very large writes, although we have not implemented this
          optimization." *)
  adaptive : bool;
      (** route each write through a per-socket {!Path_policy} instead of
          the static size rule: size, alignment, and pin-cache warmth
          pick the path, and observed per-path costs refine the cutover
          online.  Ignored when [force_uio] is set (measurement
          runs pin the path on purpose). *)
}

val default_paths : path_config
(** Pin cache on, [force_uio], [align_fixup] and [adaptive] off. *)

type stats = private {
  mutable writes : int;
  mutable uio_writes : int;
  mutable copy_writes : int;
  mutable unaligned_fallbacks : int;
  mutable align_fixups : int;
      (** misaligned writes realigned by a short leading copy (§4.5) *)
  mutable bytes_written : int;
  mutable reads : int;
  mutable wcab_copyouts : int;  (** DMA copy-outs of outboard receive data *)
  mutable kernel_copy_reads : int;  (** host copies from kernel mbufs to user *)
  mutable bytes_read : int;
  mutable write_blocks : int;  (** times a writer slept on buffer space *)
  mutable read_blocks : int;
  mutable pin_fallbacks : int;
      (** UIO writes / DMA copy-outs that degraded to the copying path
          because the kernel refused to wire the buffer (fault site
          ["vm.pin_fail"]) *)
}

type t

val create :
  host:Host.t ->
  space:Addr_space.t ->
  proc:string ->
  ?paths:path_config ->
  Tcp.pcb ->
  t
(** Wraps an (accepting or connecting) TCP pcb as a stream socket for the
    process [proc] whose buffers live in [space]. *)

val pcb : t -> Tcp.pcb
val stats : t -> stats
(** The socket's live counter record (it keeps counting after the call). *)

val space : t -> Addr_space.t
(** The address space the socket's buffers live in; it holds the pins
    (and the pinned-buffer cache) of the socket's transfers. *)

val path_policy : t -> Path_policy.t option
(** The adaptive routing policy, when [paths.adaptive] is set — exposes
    every routing decision and the live cutover estimate. *)

val write : t -> Region.t -> (unit -> unit) -> unit
(** Copy-semantics send of the whole region; continuation runs when the
    application may reuse the buffer.  Writes may be pipelined: a write
    issued while another is in flight queues behind it, in stream
    order. *)

val read : t -> Region.t -> (int -> unit) -> unit
(** Receive into the region; continues with the byte count (0 = EOF).
    Returns short reads like BSD — whatever is available, up to the region
    size.

    One reader per socket: a read (or {!read_exact}) issued while another
    is in flight — from the call until its continuation runs — raises
    [Invalid_argument], whether the first one is parked on an empty
    stream or still delivering queued data.  A read issued from the
    continuation is accepted. *)

val read_exact : t -> Region.t -> (int -> unit) -> unit
(** Loops {!read} until the region is full or EOF; continues with the
    total.  Each underlying read is a syscall of its own: it is charged
    and counted in [reads] like a {!read}. *)

val pp_stats : Format.formatter -> stats -> unit

val close : t -> unit

(** {1 Readiness (level-triggered, consumed by {!Sockpoll})} *)

val readable : t -> bool
(** Data is queued for the application, or the stream has ended — a
    [read] would complete without parking. *)

val writable : t -> bool
(** The connection accepts data and the send buffer has room — a small
    [write] would complete without parking. *)

val is_closed : t -> bool

val set_event_hook : t -> (unit -> unit) -> unit
(** Install the readiness edge notification: fired after any pcb
    readable / sendable / closed callback has run the socket's own
    wakeups.  One hook per socket (the poller); last install wins. *)
