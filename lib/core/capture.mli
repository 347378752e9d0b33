(** Packet capture — a tcpdump for the simulated stack.

    Interposes on an interface's output and input paths and records a
    decoded one-line summary per packet (zero simulated cost: capture is a
    debugging observer, not part of the modelled system). *)

type dir = Tx | Rx

type entry = {
  time : Simtime.t;
  dir : dir;
  iface : string;
  len : int;  (** network-layer packet length *)
  summary : string;  (** "IP 10.0.0.1 > 10.0.0.2 TCP seq=.. ack=.. [ACK] ..." *)
}

type t

val attach : sim:Sim.t -> Netif.t -> t
(** Starts capturing on the interface (both directions); entries carry
    [sim]'s timestamps. *)

val detach : t -> unit

val entries : t -> entry list
(** In arrival order. *)

val count : t -> int

val dump : ?limit:int -> Format.formatter -> t -> unit
(** Prints up to [limit] entries (default: all). *)
