(** UDP with the same per-packet checksum strategy selection as TCP: when
    the outgoing interface is single-copy ({!Netif.t.single_copy}) the
    datagram carries an offload record (the hardware computes a plain
    ones-complement "TCP checksum", which §4.3 argues is safe for UDP);
    otherwise the host sums the payload and pays the per-byte cost. *)

type t

type endpoint = { addr : Inaddr.t; port : int }

type stats = private {
  mutable dgrams_sent : int;
  mutable dgrams_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable csum_offloaded_tx : int;
  mutable csum_host_tx : int;
  mutable csum_hw_verified_rx : int;
  mutable csum_host_verified_rx : int;
  mutable csum_failures_rx : int;
  mutable dropped_no_port : int;
  mutable dropped_too_big : int;
}

val create : ip:Ipv4.t -> t
(** Registers protocol 17 with the IP instance. *)

val bind : t -> port:int -> (src:endpoint -> Mbuf.t -> unit) -> unit
(** Receive handler for a local port.  The chain is the datagram payload
    (headers stripped); it may contain M_WCAB mbufs on the single-copy
    path. *)

val unbind : t -> port:int -> unit

val sendto :
  t ->
  proc:string ->
  ?checksum:bool ->
  src_port:int ->
  dst:endpoint ->
  Mbuf.t ->
  (unit, string) result
(** Transmit a datagram (chain may hold M_UIO descriptors).  Charges the
    per-packet cost (plus host checksum cost when not offloaded) to
    [proc].  [checksum:false] sends with the RFC 768 "no checksum"
    encoding (field 0): no engine setup, no host pass — and no
    protection. *)

val stats : t -> stats
(** The instance's live counter record (it keeps counting after the
    call). *)
