(** Randomized fault-storm soak: the robustness plane's capstone check.

    Each seed arms the {!Fault} plane with a seed-derived storm — wire
    corruption and drops, stuck SDMA descriptors, lost interrupts, an
    outboard-memory exhaustion episode, periodic pin failures — and runs
    a verified stream transfer over a watchdog-enabled testbed.  Two
    machine-checked invariants must hold per seed:

    - {b integrity}: every received window is byte-identical to the
      sender's buffer (corruption must be caught by the checksum and
      healed by TCP retransmission, never delivered);
    - {b no leaks}: after the connection closes, injection is disarmed
      and the simulation quiesces, every occupancy metric in the {!Obs}
      registry (mbuf pool, frame bufpool, pinned pages, outboard memory
      in use on both adaptors) returns exactly to its pre-transfer
      baseline.

    Determinism: the same seed replays the same storm, so a failing seed
    is a reproducible test case. *)

type leak = {
  metric : string;  (** ["section/name"] in the {!Obs} registry *)
  baseline : float;
  final : float;
}

type seed_report = {
  seed : int;
  completed : bool;  (** transfer finished before the simulation deadline *)
  verified : bool;  (** every window byte-identical *)
  leaks : leak list;  (** occupancy metrics that failed to return to baseline *)
  throughput_mbit : float;  (** 0 when the transfer never completed *)
  retransmits : int;
  csum_failures : int;  (** corrupted frames caught by checksum verify *)
  frames_corrupted : int;
  frames_dropped : int;
  tx_recoveries : int;  (** stalled SDMA posts reclaimed *)
  sdma_timeouts : int;
  adaptor_resets : int;
  pin_fallbacks : int;
  netmem_failures : int;
  events : int;  (** simulator events dispatched over the whole seed *)
  policy : Path_policy.stats option;  (** sender's adaptive routing *)
  ok : bool;  (** completed && verified && leaks = [] *)
}

val run_seed :
  ?wsize:int -> ?total:int -> ?mode:Stack_mode.t ->
  ?plans:(seed:int -> unit) -> int -> seed_report
(** Soak one seed.  Defaults: 64 KByte windows, 2 MByte transferred, the
    single-copy stack, the full seed-derived storm.  [plans] replaces the
    storm with explicit {!Fault.plan} calls (the plane is already armed
    when it runs) — the benchmarks use it to pin exact fault rates.
    Leaves the fault plane disarmed. *)

val run_storm :
  ?seeds:int list -> ?wsize:int -> ?total:int -> ?mode:Stack_mode.t ->
  unit -> seed_report list
(** Soak each seed in turn (default seeds 1..8). *)

val all_ok : seed_report list -> bool

val total_events : seed_report list -> int
(** Sum of simulator events dispatched across all seeds — the soak's
    event-volume denominator for the CI wall-clock budget gate. *)

val print : seed_report list -> unit
