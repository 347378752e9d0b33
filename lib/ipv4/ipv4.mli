(** The IP layer: header handling, demux, forwarding.

    Cost accounting convention: the per-packet protocol cost (the paper's
    ~300 us) is charged by the transport layer on transmit and by the
    driver's interrupt path on receive, so the functions here run in
    already-charged context.  Forwarded packets are the exception: the
    forwarding cost is charged here. *)

type handler = src:Inaddr.t -> dst:Inaddr.t -> Mbuf.t -> unit
(** Transport input: the chain's IP (and link) headers have been stripped;
    [pkthdr.rx_csum] still describes hardware checksum state. *)

type stats = private {
  mutable received : int;
  mutable delivered : int;
  mutable forwarded : int;
  mutable dropped_no_route : int;
  mutable dropped_bad_header : int;
  mutable dropped_no_proto : int;
  mutable dropped_ttl : int;
  mutable sent : int;
  mutable fragments_sent : int;
  mutable fragments_rcvd : int;
  mutable reassembled : int;
}

type t

val create : host:Host.t -> t

val host : t -> Host.t
val routing : t -> Routing.t

val set_forwarding : t -> bool -> unit

val register_protocol : t -> proto:int -> handler -> unit

val output :
  t ->
  proto:int ->
  ?src:Inaddr.t ->
  dst:Inaddr.t ->
  ?ttl:int ->
  Mbuf.t ->
  (Netif.t, string) result
(** Prepends an IP header to the transport segment and hands the packet to
    the routed interface; datagrams larger than the interface MTU are
    fragmented (share-semantics splits — descriptor payloads are not
    copied).  Returns the interface used (the transport layer needs it to
    pick the checksum strategy *before* calling — see [route_for]).
    Offloaded transport checksums cannot span fragments, so callers must
    host-checksum anything that may fragment. *)

val route_for : t -> dst:Inaddr.t -> (Netif.t * Inaddr.t) option
(** Route lookup without sending — the §4.1 observation that the interface
    is only known in the network layer is surfaced to transports through
    this call. *)

val input : t -> Netif.t -> Mbuf.t -> unit
(** Attach as every interface's input upcall. *)

val set_error_hook :
  t ->
  (reason:[ `Ttl | `No_route ] ->
  orig_src:Inaddr.t ->
  orig_head:Bytes.t ->
  unit) ->
  unit
(** Called when a packet is dropped in the forwarding path; [orig_head] is
    the original IP header plus the first 8 payload bytes, as ICMP error
    generation wants them.  Installed by {!Icmp}. *)

val stats : t -> stats
(** The instance's live counter record (it keeps counting after the
    call). *)
