(** §5 interoperability conversions.

    Legacy device drivers and in-kernel applications predate the
    descriptor mbuf types and cannot be modified.  Two thin conversions
    keep them working:

    - {!flatten_for_legacy}: at the entry of a legacy driver, convert a
      chain that may contain M_UIO descriptors into plain contiguous
      kernel bytes.  The memory-memory copy is charged to the host CPU —
      "this does not increase the number of copies compared with a regular
      stack: a copy has merely been delayed" — and, because the copy
      satisfies the socket's copy semantics, the write's UIO counter is
      credited.

    - {!wcab_to_regular}: before a chain is handed to an in-kernel
      application, replace M_WCAB mbufs with regular mbufs by DMAing the
      outboard data in through the owning device's copy-out routine.  The
      conversion is asynchronous (the DMA must complete), which is exactly
      the resynchronization §5 warns about. *)

val flatten_for_legacy :
  host:Host.t -> Mbuf.t -> (Bytes.t -> unit) -> unit
(** Continuation receives the packet as contiguous bytes; the copy is
    charged to the host's ["kernel"] process.  Raises
    [Mbuf.Outboard_data] if the chain holds M_WCAB data (a legacy device
    can never send outboard data — the transport layer must prevent it).

    A pending transmit-checksum offload record (packet built for an
    offloading device, rerouted to a legacy one) is materialized in
    software here, fused with the flatten copy, and cleared — the packet
    leaves with a correct checksum instead of just the seed. *)

val wcab_to_regular :
  host:Host.t -> iface:Netif.t -> Mbuf.t -> (Mbuf.t -> unit) -> unit
(** Continuation receives an equivalent all-regular chain (the original is
    consumed).  Chains without WCAB parts pass through untouched. *)
