(** The host-interface taxonomy of Table 1 (after Steenkiste [19]).

    A host interface is classified by three parameters: the API semantics,
    where the transport checksum lives, and the adaptor architecture
    (buffering x data-movement support).  For each class the model derives
    the minimal sequence of per-byte operations and from it the number of
    times the data crosses the memory system — reproducing the table's
    single-copy / copy+checksum / two-copy partition.

    The derivation rules:
    - a copy-semantics API needs a host snapshot of the data *unless* the
      adaptor has outboard buffering to hold it;
    - a header checksum must be known before the packet leaves, so it can
      only be computed during the device transfer if at least one packet
      is buffered after the transfer (packet or outboard buffering);
    - the checksum merges into any host-performed pass (copy or PIO) for
      free; a plain DMA engine cannot compute it, forcing a separate read
      pass unless a host copy already exists to carry it. *)

type api = Copy_api | Share_api
type csum_loc = Header | Trailer
type buffering = No_buffering | Packet_buffer | Outboard_buffer
type movement = Pio | Dma | Dma_csum

type op =
  | Copy  (** host memory-memory copy *)
  | Copy_c  (** copy with checksum folded in *)
  | Pio_op  (** host programmed IO to the device *)
  | Pio_c
  | Dma_op  (** adaptor DMA *)
  | Dma_c  (** adaptor DMA with checksum engine *)
  | Read_c  (** host checksum-only read pass *)

type klass = {
  api : api;
  csum : csum_loc;
  buffering : buffering;
  movement : movement;
  ops : op list;
}

val host_passes : klass -> int
(** Times the host CPU touches each byte (copies count once per byte
    moved, checksum reads once). *)

val total_passes : klass -> int
(** Host passes plus device transfers — the per-byte memory-system load. *)

val is_single_copy : klass -> bool
(** Exactly one data transfer and no separate host pass. *)

val cab_class : klass
(** The CAB with sockets: copy API, header checksum, outboard buffering,
    DMA with checksum engines — the paper's focus. *)

val all : unit -> klass list
(** All 36 classes in table order. *)

val pp_ops : Format.formatter -> op list -> unit

val estimated_efficiency : Host_profile.t -> klass -> float
(** Mbit/s the host could sustain for this class under the cost model,
    for 32 KByte packets: per-byte host passes at the profile's copy/read
    bandwidths plus the per-packet overhead.  Device transfers cost no
    host CPU. *)
