(** Packet capture — a tcpdump for the simulated stack.

    Interposes on an interface's output and input paths and records a
    decoded one-line summary per packet (zero simulated cost: capture is a
    debugging observer, not part of the modelled system). *)

type t

val attach : sim:Sim.t -> Netif.t -> t
(** Starts capturing on the interface (both directions); entries carry
    [sim]'s timestamps. *)

val dump : ?limit:int -> Format.formatter -> t -> unit
(** Prints up to [limit] entries (default: all) in arrival order, one
    line each: [\[time\] iface send|recv <len>B  <summary>], where [len]
    is the network-layer packet length and the summary reads like
    ["IP 10.0.0.1 > 10.0.0.2 TCP 5001>1024 [.] seq=.. ack=.. win=.. len=.."]. *)
