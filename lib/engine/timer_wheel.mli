(** Hierarchical timing wheel: the O(1) home for delay-class timers.

    The simulator's event population is dominated by timers that are
    re-armed or cancelled long before they fire — TCP retransmission and
    delayed-ack timers, driver watchdogs, lost-interrupt poll timers.  In
    a binary heap every one of those costs O(log n) to schedule and a
    tombstone that stays in the heap until its deadline when cancelled.
    The wheel makes all three hot operations O(1):

    - {b schedule}: hash the deadline into a slot (2–3 levels of
      power-of-two slots, far deadlines in coarser levels) and append to
      the slot's intrusive doubly-linked list;
    - {b cancel}: unlink the record from whatever list holds it — the
      timer is gone immediately, no tombstone;
    - {b re-arm}: unlink + relink, reusing the same record and callback,
      so the steady-state re-arm path allocates nothing.

    Timer records are plain GC-owned values ({!make}), held by whoever
    armed them: the wheel keeps no pool of its own.  The scheduler's
    heap ({!Event_queue}) holds the same records, so a record is in at
    most one store and its [where] field says which.

    Exactness: the wheel does NOT round deadlines to tick granularity.
    Records carry their exact [deadline] and a scheduler-wide [seq], and
    expiry hands timers back in exact (deadline, seq) order: when the
    cursor reaches a slot, the slot's (small) population is sorted once
    into the [ready] list, in place on the records' own links (each is
    inserted from the ready tail, so a slot filed in deadline order
    costs one comparison per timer and the sort allocates nothing).
    [Sim] merges that stream with its binary heap so firing order is
    byte-identical to a heap-only scheduler.

    Deadlines the wheel cannot place — already inside the swept window
    ("near", e.g. zero-delay events) or beyond the top level's horizon
    ("far") — are rejected and the caller keeps them on the heap. *)

type timer = {
  mutable fn : unit -> unit;  (** callback, reused across re-arms *)
  mutable deadline : Simtime.t;  (** exact expiry, not tick-rounded *)
  mutable seq : int;  (** scheduler-wide FIFO tiebreak, set by [Sim] *)
  mutable where : int;
      (** location: {!w_none}, a heap slot ({!w_heap} for slot 0, one
          less per slot), a wheel level, or the ready list *)
  mutable prev : timer;  (** intrusive dlist; self-linked when unlinked *)
  mutable next : timer;
}

val w_none : int
(** Not scheduled anywhere (idle, fired, or cancelled). *)

val w_heap : int
(** Resident in slot 0 of the caller's event heap ({!Event_queue}, the
    near/far reject fallback); slot [i] is [w_heap - i], so every
    [where <= w_heap] is a heap slot. *)

type t

val create : unit -> t
(** An empty wheel: level-0 granularity 2{^9} ns, 2{^8} slots per level,
    {!levels} levels, so the horizon is 2{^(9 + 3*8)} ns (≈ 8.6 s). *)

val levels : int
(** Number of wheel levels (3). *)

val make : fn:(unit -> unit) -> timer
(** A fresh, idle record: one block of 6 fields, built once. *)

val before : timer -> timer -> bool
(** [before a b]: [a] fires first, by ([deadline], [seq]) — the order of
    both of the scheduler's stores. *)

val set_fn : timer -> (unit -> unit) -> unit
(** Swap the callback (for self-referential timer setup). *)

val try_schedule : t -> now:Simtime.t -> timer -> bool
(** Place [tm] (with [deadline] and [seq] already set) in the wheel.
    [false] when the deadline is near or beyond the horizon; the caller
    then owns heap placement.  [now] re-anchors an empty wheel's cursor.

    "Near" means behind the cursor, not close to [now].  The cursor is
    not the clock: {!next_deadline} moves it up to the slot of the
    wheel's earliest pending deadline, and one tick past that slot once
    the slot is sorted into the ready list — even while the caller's
    heap still holds earlier events.  Until the clock catches up, every
    deadline behind the cursor is rejected as near, however far it lies
    past [now].  One long timer parked in the wheel (a TCP RTO) thus
    pulls the cursor ahead and sends the short deadlines scheduled
    meanwhile (CPU completions, link deliveries, delayed ACKs) to the
    heap.  Both stores fire in exact (deadline, seq) order, so this
    moves cost, never the schedule. *)

val cancel : t -> timer -> unit
(** O(1) unlink from its slot or the ready list.  No-op if not wheel
    resident. *)

val next_deadline : t -> Simtime.t
(** Exact earliest pending deadline, or [max_int] when empty.  Advances
    the cursor (cascading coarser levels) until the earliest occupied
    slot has been sorted into the ready list; subsequent calls are O(1)
    until that batch is consumed. *)

val expired_seq : t -> time:Simtime.t -> seq_below:int -> int
(** [seq] of the ready-list head if it expires exactly at [time] with
    [seq < seq_below]; [max_int] otherwise.  Never advances the cursor. *)

val pop_expired : t -> timer
(** Unlink and return the ready-list head (caller checked
    {!expired_seq}). *)

(** {2 Introspection (Obs export, tests)} *)

val pending : t -> int
(** Timers resident in slots plus the ready list. *)

val ready_len : t -> int
val level_count : t -> int -> int
val scheduled : t -> int
val fired : t -> int
val cancels : t -> int
val cascades : t -> int

val slot_visits : t -> int
(** Cursor steps: each one examines the slot under the cursor, or jumps
    an empty level 0 to the next boundary of an occupied level. *)

val near_rejects : t -> int
(** Deadlines {!try_schedule} refused as near, i.e. behind the cursor
    (see there) — not "zero-delay" events.  On the [perfbench] rpc
    workload the RTO keeps the cursor ahead of the clock, and 750,011 of
    the 800,039 deadlines of a 50,000-message round are refused this way
    and take the heap. *)

val far_rejects : t -> int
