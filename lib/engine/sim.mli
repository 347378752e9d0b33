(** Discrete-event simulation scheduler.

    Single-threaded, deterministic: events fire in (time, scheduling-order)
    order.  All simulated components (hosts, adaptors, links) share one
    [Sim.t].

    Two event stores sit behind one sequence space, and [Sim] is its
    only source: it stamps every event's [deadline] and [seq] into the
    timer record, and both stores order records by those two fields.
    Both hold the records themselves, so neither allocates for the
    events it holds, and both take a stopped or re-armed record out at
    once: no tombstone is left behind.

    - a {e hierarchical timing wheel} ({!Timer_wheel}) holds delay-class
      timers — the RTOs, delayed acks, watchdogs, and poll timers that
      are overwhelmingly re-armed or cancelled before they fire.
      Schedule, cancel, and re-arm are O(1) list splices;
    - the indexed binary heap {!Event_queue} keeps what the wheel
      rejects: deadlines beyond the wheel horizon (≈ 8.6 s) and
      deadlines behind the wheel's cursor, zero-delay wakeups among
      them.  Cancel and re-arm take the record out in O(log n).  On a
      request/response workload the pending RTO keeps the cursor ahead
      of the clock, and most events take the heap (see
      {!Timer_wheel.try_schedule}).

    [run] merges the two streams by exact (time, seq), so firing order is
    byte-identical to a heap-only scheduler ([create ~wheel:false]) —
    property-tested by the equivalence oracle in [test_timer.ml].

    Alongside the one-shot {!after}, reusable timers
    ({!timer}/{!rearm}/{!stop}) carry their callback across re-arms, so
    the steady-state re-arm path allocates nothing.  Every timer is one
    record, built once and owned by the code that holds it: the
    scheduler keeps no pool of records to hand back. *)

type t

type handle = Timer_wheel.timer
(** A scheduled event that can be stopped (e.g. a protocol timer).
    Every handle is a plain GC-owned record that belongs to whoever
    holds it; dropping an idle one is all it takes to be rid of it. *)

val create : ?wheel:bool -> unit -> t
(** [wheel:false] keeps every event on the binary heap — the reference
    scheduler the equivalence oracle compares against.  Default [true]. *)

val now : t -> Simtime.t

val after : t -> Simtime.t -> (unit -> unit) -> handle
(** Schedule a callback [delay] (>= 0) after [now]. *)

(** {2 Reusable timers}

    One record + one callback, re-armed in place: nothing is allocated
    when a retransmit timer pushes its deadline out or a watchdog
    re-arms.  A reusable timer is single-shot per arm — firing disarms
    it — and holds at most one pending deadline ({!rearm} on an armed
    timer moves it). *)

val timer : t -> (unit -> unit) -> handle
(** An idle reusable timer with callback installed. *)

val set_fn : handle -> (unit -> unit) -> unit
(** Replace the callback — for timers whose callback must reference the
    record itself (build idle, then install). *)

val rearm : t -> handle -> Simtime.t -> unit
(** Arm (or move) the timer to fire [delay] from [now]. *)

val rearm_at : t -> handle -> Simtime.t -> unit
(** Arm (or move) the timer to fire at an absolute time (>= [now]). *)

val stop : t -> handle -> unit
(** Disarm: a wheel-resident timer is unlinked in O(1), a heap-resident
    one taken out of the heap in O(log n); either way it is gone at
    once.  Stopping an idle or fired timer is a no-op, and a stopped
    timer can be re-armed. *)

val armed : handle -> bool
(** True while a deadline is pending (armed and not yet fired). *)

val periodic : t -> every:Simtime.t -> (unit -> unit) -> handle
(** A self-re-arming timer: fires every [every], starting one period
    from now.  {!stop} pauses it; {!rearm} restarts it.  The re-arm
    happens after the callback runs, and allocates nothing. *)

val pending : t -> int
(** Number of armed events still queued; a stopped timer is not
    counted. *)

val wheel_work : t -> int
(** The timing wheel's deterministic cost since [create]: cursor steps
    ({!Timer_wheel.slot_visits}), timers cascaded to a finer level, and
    deadlines it rejected to the heap.  Scheduling, cancelling and
    re-arming a wheel-resident timer cost none of these. *)

val events_fired : t -> int
(** Callbacks invoked since [create] — the denominator for events/sec
    soak budgets. *)

exception Stuck of string
(** Raised by [run] when [max_events] is exhausted — a guard against
    accidental event loops in protocol code. *)

val run : ?until:Simtime.t -> ?max_events:int -> t -> unit
(** Drains the event queue.  Stops when empty, or when the next event is
    later than [until] (the clock is then advanced to [until]).
    [max_events] defaults to 200 million. *)

val step : t -> bool
(** Fires the single earliest armed event and moves the clock to its
    deadline.  [false], with the clock unmoved, when nothing is armed. *)
