(** Driver for the legacy Ethernet device — the "existing device" of §5.

    Not modified for the single-copy stack: it understands only regular
    mbufs.  A thin conversion layer at its entry point
    ({!Interop.flatten_for_legacy}) turns descriptor chains into plain
    kernel bytes, charging the delayed copy. *)

type t

type stats = private {
  mutable tx_frames : int;
  mutable rx_frames : int;
  mutable tx_converted : int;
      (** frames whose chain needed the §5 conversion *)
  mutable tx_drops : int;
}

val attach :
  host:Host.t ->
  ip:Ipv4.t ->
  dev:Etherdev.t ->
  addr:Inaddr.t ->
  t
(** The interface's MTU is 1500. *)

val iface : t -> Netif.t
val stats : t -> stats
(** The driver's live counter record (it keeps counting after the
    call). *)

val add_neighbor : t -> Inaddr.t -> mac:int -> unit
