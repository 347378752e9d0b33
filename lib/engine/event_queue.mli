(** Priority queue of timed events.

    A binary min-heap ordered by (time, sequence number).  The owner
    supplies each entry's sequence number, and two entries for the same
    instant leave in sequence order, so the simulation is deterministic. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

val push_seq : 'a t -> time:Simtime.t -> seq:int -> 'a -> unit
(** Push with a caller-supplied sequence number: the owner (like [Sim])
    draws every event's seq from one sequence space it shares across
    several event sources, so (time, seq) totally orders them all. *)

val iter_ready :
  'a t -> now:Simtime.t -> seq_below:int -> f:(int -> 'a -> unit) -> int
(** Allocation-free bulk drain: removes every event with [time <= now]
    and [seq < seq_below], calling
    [f seq payload] on each in (time, seq) order, and
    returns the number drained.  Each entry is removed {e before} [f]
    runs, so the callback may freely push or compact.  This is the hot
    path under [Sim.run]'s same-instant batches. *)

val min_time : 'a t -> Simtime.t
(** Time of the earliest event without removing it; [max_int] when
    empty, so the run loop's peek allocates nothing. *)

val peek_seq : 'a t -> int
(** Sequence number of the earliest event; [max_int] when empty. *)

val take : 'a t -> 'a
(** Remove and return the earliest payload.  The queue must be
    non-empty.  [min_time]/[peek_seq] give the root's key beforehand,
    so a merge loop pops without allocating a result tuple.  The
    vacated heap slot is cleared, so the queue never keeps a removed
    payload (or the closures it captures) reachable. *)

(** {2 Dead-entry accounting}

    A heap cannot remove an arbitrary entry in O(1), so owners that
    invalidate entries in place (cancelled or re-armed timers) tell the
    queue how much garbage it is carrying and trigger {!compact} when
    the ratio gets out of hand. *)

val note_dead : 'a t -> unit
(** The owner invalidated one resident entry. *)

val dead_decr : 'a t -> unit
(** A known-dead entry was drained normally (popped and skipped). *)

val dead_count : 'a t -> int
val compactions : 'a t -> int

val compact : 'a t -> live:(int -> 'a -> bool) -> unit
(** Drop every entry for which [live seq payload] is false and rebuild
    the heap in O(n) (Floyd heapify); resets {!dead_count} to zero.
    Pop order of the surviving entries is unchanged. *)
