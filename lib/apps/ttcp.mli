(** The ttcp bulk-throughput benchmark (§7.1).

    Every flow runs one body: the sender writes [total] bytes as
    [wsize]-byte socket writes, keeping two writes in flight over two
    identically filled buffers (UIO copy semantics block each write
    until the adaptor has pulled its bytes, so a single reused buffer
    would drain the socket send queue between writes and idle the DMA
    engine for the syscall + per-packet setup of every write); the
    receiver reads into one reused [wsize]-byte buffer and checks the
    stream against the pattern.  Each loop call charges ttcp 5 us of
    user time on the CPU of the shard owning the connection.  Both
    hosts run the util idle-soaker on every shard, so utilization can
    be computed with the paper's formula ({!Measurement}).

    A run completes when every receiver has consumed every byte; a
    flow the peer ends early (EOF) finishes short and unverified. *)

type result = {
  sender : Measurement.t;
  receiver : Measurement.t;
  verified : bool;  (** payload pattern checked at the receiver *)
  retransmits : int;
  write_latency_p50 : Simtime.t;
      (** median time a write call blocked the application (copy-semantics
          completion) *)
  write_latency_p99 : Simtime.t;
  sender_tcp : Tcp.pcb_stats;
  receiver_tcp : Tcp.pcb_stats;
  sender_socket : Socket.stats;
  sender_policy : Path_policy.stats option;
      (** routing-decision counters when the sender ran adaptive *)
}

val run :
  tb:Testbed.t ->
  wsize:int ->
  total:int ->
  ?force_uio:bool ->
  ?adaptive:bool ->
  ?verify:bool ->
  ?port:int ->
  unit ->
  result
(** One flow on port [port] (default 5001), run to completion.
    [force_uio] (default true) reproduces the paper's measurement
    configuration: the single-copy stack always takes the single-copy
    path regardless of write size.  [adaptive] (default false) overrides
    it: sends route through a per-socket {!Path_policy} (size /
    alignment / pin-warmth, online cutover) and the sender's routing
    counters are reported in [sender_policy].  [sender] and [receiver]
    are measured on the CPU of the shard that owns the connection on
    each host.  Raises [Failure] if the transfer does not finish within
    simulated 10 minutes. *)

type parallel_result = {
  p_mbit : float;  (** aggregate throughput over all flows *)
  p_verified : bool;  (** every flow's pattern checked (per-flow seeds) *)
}

val run_parallel :
  tb:Testbed.t ->
  flows:int ->
  wsize:int ->
  total:int ->
  ?verify:bool ->
  unit ->
  parallel_result
(** [flows] concurrent ttcp streams (ports 5001 .. [5000 + flows]), each
    moving [total] bytes; the RSS demux spreads them across the testbed
    hosts' shards, each app loop charging the CPU of the shard owning its
    connection.  Every flow forces the single-copy path, as {!run} does by
    default.  Each flow's payload
    carries a flow-specific pattern seed, so cross-flow misdelivery fails
    verification.  Aggregate throughput is measured from the first
    established connection to the last completed flow.  Raises [Failure]
    if any flow does not finish within simulated 10 minutes. *)
