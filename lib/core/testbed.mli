(** The paper's two-host testbed: two workstations with CAB adaptors on a
    point-to-point HIPPI link (§7.1), ready for experiments, tests and
    examples.  It also holds what every harness shares: the one CAB-host
    builder ({!make_node}, used by switched topologies too), the
    single-buffer sender ({!write_all}) and the one drain-to-baseline
    check ({!occupancy}, {!quiesce}, {!leaks}).

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

val make_node :
  sim:Sim.t ->
  profile:Host_profile.t ->
  mode:Stack_mode.t ->
  name:string ->
  ?tcp_config:(Tcp.config -> Tcp.config) ->
  ?shards:int ->
  netmem_pages:int ->
  hippi_addr:int ->
  transmit:(Bytes.t -> dst:int -> channel:int -> unit) ->
  addr:Inaddr.t ->
  ?mtu:int ->
  ?watchdog:Simtime.t ->
  unit ->
  node
(** One CAB host, the only place a CAB is built outside [lib/cab]: a
    {!Netstack} named [name], a CAB named [name ^ ".cab"] whose media
    hook is [transmit], and the CAB attached at [addr]/24 (see
    {!Netstack.attach_cab} for [mtu] and [watchdog]).  The caller wires
    the fabric's receive side to {!Cab.deliver} and adds neighbours. *)

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
    aggregate.

    The registry's [addr_space/pinned_pages] and
    [addr_space/uncached_pin_refs] then read the pins of the two hosts'
    address spaces ({!Addr_space.pinned_pages},
    {!Addr_space.uncached_pin_refs}); like [sim/*], they answer for the
    latest testbed. *)

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

val write_all : Socket.t -> Region.t -> total:int -> unit
(** The single-buffer sender: writes [src] again and again until [total]
    bytes are written, then closes the socket.  Unlike ttcp it charges
    no application loop cost. *)

val send_stream :
  Netstack.t ->
  dst:Inaddr.t ->
  port:int ->
  proc:string ->
  wsize:int ->
  total:int ->
  seed:int ->
  unit
(** Connects from the stack to [dst]:[port] and, once established,
    {!write_all}s one forced-UIO [wsize]-byte buffer filled with pattern
    [seed] as process [proc]. *)

(** {2 Drain to baseline}

    Every scenario that must leave nothing behind takes an
    {!occupancy} snapshot before it starts and diffs it with {!leaks}
    at the end, after {!quiesce} if its traffic needs settling.  The
    snapshot reads, by name:

    - [sim/pending]: armed timers and queued events;
    - [mbuf_pool/live] (live mbufs) and [mbuf_pool/live_clusters];
    - [bufpool/outstanding] (frames out of {!Bufpool.shared});
    - [addr_space/uncached_pin_refs]: the page pin references the
      address spaces of this testbed's two hosts hold outside their
      pinned-buffer caches (a cache that keeps a buffer wired is
      working, not leaking, so a drain check never has to flush it);
    - [cab.<cab>/netmem_in_use] for each CAB;
    - [tcp.<host>/active_flows] for each host.

    The pools are process-wide, so a snapshot is only comparable with a
    later one taken in the same process. *)

type occupancy

val occupancy : t -> occupancy

val quiesce : t -> slack:Simtime.t -> unit
(** Runs the simulation for [slack], then polls both CABs (a swallowed
    interrupt can strand events) and runs [slack] again, repeating while
    a poll finds work (at most 16 rounds), and ends with one more
    [slack].  Choose [slack] longer than the slowest timer that must
    expire, such as a SYN_SENT give-up. *)

type leak = { metric : string; baseline : float; final : float }

val leaks : t -> occupancy -> leak list
(** Every metric whose reading differs from the snapshot, in snapshot
    order; [[]] when the testbed drained to baseline. *)

val string_of_leak : leak -> string
(** ["metric: baseline B -> final F"]. *)
