(** Loopback interface: a legacy-style device with no hardware at all.
    Descriptor chains are flattened (charged) on entry, and the packet is
    re-delivered to IP after a small scheduling delay. *)

type t

val attach : host:Host.t -> ip:Ipv4.t -> t
(** MTU 64 KByte.  Registers a route for 127.0.0.1/8. *)

val iface : t -> Netif.t
