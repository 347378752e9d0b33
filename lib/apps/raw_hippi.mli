(** Raw HIPPI throughput test (§7.2).

    Drives the CAB directly — no protocol stack: well-formed HIPPI packets
    of a given size, posted back-to-back with double buffering so the
    SDMA of packet n+1 overlaps the media transfer of packet n.  "The raw
    HIPPI results represent the highest throughput one can expect for a
    given packet size." *)

val run : tb:Testbed.t -> packet_size:int -> total:int -> float
(** Sends ceil(total/packet_size) packets from A to B and returns the
    throughput delivered at B, in Mbit/s. *)
