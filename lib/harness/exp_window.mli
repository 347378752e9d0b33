(** §7.2's window observation: "reducing the TCP window increases
    efficiency slightly, even though the throughput is lower.  This is
    probably also a cache effect."

    The sweep runs the unmodified stack at 64 KByte writes with shrinking
    socket buffers.  Note this reproduction does *not* confirm the
    paper's (self-declaredly tentative) cache hypothesis: in our cost
    model the checksum pass runs cache-warm right after the socket
    layer's copy regardless of window, so the sweep mostly shows the
    throughput side (bigger windows keep the pipe full) with roughly flat
    efficiency.  Modelling the unacked queue as the checksum working set
    would reproduce the paper's slight effect but breaks the calibrated
    ~180 Mbit/s large-write efficiency anchor, so we keep the anchor and
    record the discrepancy here. *)

type row = {
  window : int;
  throughput_mbit : float;
  efficiency_mbit : float;
}

val run : unit -> row list
(** 4 MB of 64 KB writes per window, from 64 KB to 512 KB. *)

val print : row list -> unit
