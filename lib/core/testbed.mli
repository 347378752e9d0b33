(** The paper's two-host testbed: two workstations with CAB adaptors on a
    point-to-point HIPPI link (§7.1), ready for experiments, tests and
    examples.

    Addresses: host A is 10.0.0.1, host B is 10.0.0.2, on HIPPI switch
    addresses 1 and 2. *)

type node = {
  stack : Netstack.t;
  cab : Cab.t;
  driver : Cab_driver.t;
}

type t = {
  sim : Sim.t;
  link : Hippi_link.t;
  a : node;
  b : node;
}

val addr_a : Inaddr.t
val addr_b : Inaddr.t

val create :
  ?profile:Host_profile.t ->
  ?mode:Stack_mode.t ->
  ?mtu:int ->
  ?netmem_pages:int ->
  ?tcp_config:(Tcp.config -> Tcp.config) ->
  ?drop_a_frames:int list ->
  ?drop_b_frames:int list ->
  ?watchdog:Simtime.t ->
  ?shards:int ->
  ?link_rate:float ->
  unit ->
  t
(** Defaults: alpha400 profile, single-copy mode, 32 KByte MTU, 4096
    network-memory pages per CAB (16 MByte).  [drop_a_frames] /
    [drop_b_frames] inject loss: the i-th frames sent by that host
    (0-based) are silently discarded — the fault-injection hooks for
    retransmission experiments.  [watchdog] arms both drivers'
    recovery plane (see {!Cab_driver.attach}); off by default.
    [shards] (default 1) splits both hosts into RSS shards (see
    {!Host.create}); [link_rate] overrides the HIPPI line rate in
    bytes/s for scaling experiments where 100 MByte/s would cap the
    aggregate. *)

val establish_stream :
  t ->
  port:int ->
  ?a_paths:Socket.path_config ->
  ?b_paths:Socket.path_config ->
  (Socket.t -> Socket.t -> unit) ->
  unit
(** Listens on B, connects from A, and calls the continuation with the
    two connected sockets (A-side first) once the handshake completes.
    Run the simulation to make progress. *)
