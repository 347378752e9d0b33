(** Assembly of one host's protocol stack.

    One [Netstack.t] is the paper's "single stack" (§4.1): a single IP
    instance with one routing table serving every interface — single-copy
    CABs, legacy Ethernets, loopback — with TCP and UDP on top.  The
    [mode] selects the unmodified baseline or the single-copy stack for
    the whole host. *)

type t = {
  host : Host.t;
  ip : Ipv4.t;
  tcp : Tcp.t;
  udp : Udp.t;
  mode : Stack_mode.t;
  mutable spaces : Addr_space.t list;
      (** every space {!make_space} returned, newest first *)
}

val create :
  sim:Sim.t ->
  profile:Host_profile.t ->
  name:string ->
  mode:Stack_mode.t ->
  ?tcp_config:(Tcp.config -> Tcp.config) ->
  ?shards:int ->
  unit ->
  t
(** [tcp_config] tweaks the mode-derived default TCP configuration.
    [shards] (default 1) splits the host into that many RSS shards; see
    {!Host.create} and {!Shard}. *)

val attach_cab :
  t ->
  cab:Cab.t ->
  addr:Inaddr.t ->
  ?mtu:int ->
  ?watchdog:Simtime.t ->
  unit ->
  Cab_driver.t
(** Attaches the CAB and routes [addr]/24 over it.  [watchdog] arms the
    driver's recovery plane (see {!Cab_driver.attach}). *)

val attach_ether : t -> dev:Etherdev.t -> addr:Inaddr.t -> Ether_driver.t
(** Attaches a legacy Ethernet and routes [addr]/24 over it. *)

val attach_loopback : t -> Loopback.t

val add_route :
  t -> prefix:Inaddr.t -> len:int -> ?gateway:Inaddr.t -> Netif.t -> unit

val set_forwarding : t -> bool -> unit

val make_space : t -> name:string -> Addr_space.t
(** A fresh application address space on this host, kept in [spaces]
    so the host's pins can be counted. *)
