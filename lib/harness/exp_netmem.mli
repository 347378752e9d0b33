(** Sizing the outboard network memory (§2.1's central resource).

    TCP keeps every unacknowledged packet outboard (the retransmit
    buffers of §4.2), so the adaptor needs roughly a window's worth of
    network memory plus working space for packets in flight.  Shrinking
    the memory below that forces allocation failures — the driver drops
    the packet and TCP retransmits — and throughput falls off a cliff.

    The paper's CAB carried megabytes of DRAM; this sweep shows why. *)

type row = {
  netmem_pages : int;  (** CAB pages of 4 KByte *)
  throughput_mbit : float;
  alloc_failures : int;
  retransmits : int;
}

val run : ?pages_list:int list -> ?total:int -> unit -> row list
(** 512 KByte writes / window.  Defaults: pages 64..4096 by doubling,
    8 MByte transferred. *)

val print : row list -> unit
