(** HIPPI crossbar switch with two media-access disciplines (§2.1).

    With a single FIFO per input, a packet whose destination output is busy
    blocks everything behind it (head-of-line blocking); the classic
    Hluchyj/Karol analysis the paper cites bounds utilization at ~58% under
    random traffic.  With *logical channels* — per-destination queues, as
    the CAB implements — an input can transmit any queued packet whose
    output is free, recovering nearly full utilization.

    The model is an input-queued crossbar: a transfer holds its input and
    output ports for the packet's serialization time at line rate. *)

type mac = Fifo | Logical_channels

type t

val create :
  sim:Sim.t -> ports:int -> ?rate:float -> ?latency:Simtime.t -> mac -> t

val ports : t -> int

val attach : t -> port:int -> (Bytes.t -> unit) -> unit

val submit : t -> src:int -> dst:int -> Bytes.t -> unit
(** Queue a frame at input [src] for output [dst].  Self-traffic
    ([src = dst]) is allowed and modelled like any other transfer. *)

val input_queue_len : t -> port:int -> int

val output_busy_time : t -> port:int -> Simtime.t
