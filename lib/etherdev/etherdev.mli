(** A classic shared-segment Ethernet device model (the "existing device"
    of §5): no outboard buffering, no checksum hardware — the host copies
    frames to/from the NIC and computes checksums itself.

    All stations attached to a {!segment} share one half-duplex medium,
    serialized FIFO (no collision modelling — the experiments only need
    correct, slower, legacy behaviour). *)

type segment
type t

val create_segment : sim:Sim.t -> ?rate:float -> unit -> segment
(** [rate] defaults to 10 Mbit/s Ethernet (1.25e6 bytes/s); each frame
    reaches its receivers 5 us after the medium serialized it. *)

val attach : segment -> mac:int -> t
(** Attach a station with a 48-bit MAC address. *)

val mac : t -> int

val set_rx : t -> (Bytes.t -> unit) -> unit
(** Frame receive callback (runs at frame arrival; the driver charges
    interrupt and copy costs). *)

val transmit : t -> Bytes.t -> unit
(** Queue a frame on the medium; stations other than the sender whose MAC
    matches the destination (or broadcast 0xffffffffffff) receive it. *)
