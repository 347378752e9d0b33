(** The 100K-flow mixed server scenario (overload robustness).

    Host B serves short RPC connections on a bounded listener (accept
    queue, SYN queue, cookies) through the {!Sockpoll} readiness loop
    while four long-lived bulk flows stream alongside; host A churns
    [concurrency] closed-loop RPC clients until the server has accepted
    [target] connections.  The flood variant arms [tcp.synflood] and
    [conn.accept_full] to verify the admission machinery protects the
    established (bulk) flows.  Every run must drain every
    {!Testbed.occupancy} metric (armed timers, mbufs and clusters,
    frames, pinned pages, netmem pages, live flows on both hosts)
    exactly back to baseline after a {!Testbed.quiesce} with 40 s
    slack. *)

type result = {
  flood : bool;
  target : int;
  accepted : int;
  rpc_completed : int;
  client_retries : int;
  bulk_mbit : float;
  syn_rcvd : int;
  syn_queued : int;
  synack_rexmits : int;
  syn_timeouts : int;
  flood_injected : int;
  cookies_sent : int;
  cookies_validated : int;
  cookies_rejected : int;
  sheds : int;
  shed_pressure : int;
  shed_accept : int;
  shed_penalty : int;
  accept_overflows : int;
  accept_p50_us : float option;
  accept_p99_us : float option;
  elapsed_s : float;
  events : int;
  leaks : Testbed.leak list;
  ok : bool;
}

val run : ?flood:bool -> ?target:int -> unit -> result
(** Defaults: no flood, target 100_000 accepts.  256 churn clients run
    concurrently, and the flood's fault plan is seeded with 42.  The
    result's counts are deltas over this run, but the registry keeps
    counting across runs: call {!Obs.reset} before a run for its
    registry dump, latency histograms included, to cover that run
    alone. *)

val print : result -> unit
