(** Fixed-capacity ring-buffer packet tracer.

    Records descriptor lifecycle events (socket write → sendq append /
    merge → packetize → checksum-seed compute → SDMA post → doorbell →
    interrupt → rx adjust → socket read) with simulator timestamps.

    Steady-state discipline: when disabled, {!emit} is one mutable-bool
    test and returns; when enabled it writes four ints into a
    preallocated slot. The ring never allocates after {!configure}. When
    full, the oldest event is overwritten and {!dropped} counts each
    overwrite, so exports always hold the {e latest} [capacity] events in
    chronological order. *)

type event =
  | Sock_write      (** a = bytes requested, b = route (0 copy / 1 uio) *)
  | Sendq_append    (** a = bytes appended, b = queue length after *)
  | Sendq_merge     (** a = bytes appended into an existing descriptor *)
  | Packetize       (** a = sequence number, b = segment length *)
  | Seed_compute    (** a = sequence number, b = checksum seed *)
  | Sdma_post       (** a = segment bytes, b = segments in chain *)
  | Doorbell        (** a = packet length, b = pending doorbells *)
  | Intr            (** a = notifications delivered in this batch *)
  | Rx_adjust       (** a = sequence number, b = adjusted checksum *)
  | Sock_read       (** a = bytes delivered to the application *)
  | Rx_autodma
      (** rx auto-DMA/verify engine completed a head prefix:
          a = prefix bytes, b = netmem packet id *)
  | Rx_copyout
      (** copy-out engine accepted a post: a = bytes, b = posts in
          flight on the engine (after this one) *)

val configure : capacity:int -> unit
(** (Re)allocate the ring, empty and with a zero drop count.  Capacity
    must be positive. *)

val set_clock : (unit -> int) -> unit
(** Install the timestamp source (sim time in ns); the testbed installs
    [Sim.now]. Defaults to a 0-returning clock. *)

val enable : unit -> unit
val disable : unit -> unit

val emit : event -> a:int -> b:int -> unit
(** Record an event (no-op when disabled). *)

val length : unit -> int
(** Events currently held (≤ capacity). *)

val dropped : unit -> int
(** Events overwritten since the last {!configure}. *)

val to_chrome : unit -> string
(** Chrome trace-event format (chrome://tracing, Perfetto): one instant
    event per record, oldest first, [ts] in microseconds. *)
