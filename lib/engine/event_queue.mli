(** Priority queue of timed events, stored in place.

    An indexed binary min-heap of {!Timer_wheel.timer} records, ordered
    by each record's own ([deadline], [seq]).  The owner stamps both
    before {!push}, and [seq] is unique, so two events for the same
    instant leave in sequence order and the simulation is deterministic.

    The heap holds the records themselves: a push allocates nothing.  A
    resident record's [where] field names its slot ({!Timer_wheel.w_heap}
    for slot 0, one less per slot), so {!remove} takes any resident
    record out in O(log n) and no removed record stays behind. *)

type t

val create : unit -> t

val is_empty : t -> bool
val length : t -> int

val push : t -> Timer_wheel.timer -> unit
(** Insert a record that is resident nowhere, keyed on its [deadline]
    and [seq]. *)

val remove : t -> Timer_wheel.timer -> unit
(** Take a resident record out of the heap; its [where] becomes
    {!Timer_wheel.w_none}.  The vacated slot is cleared, so the queue
    never keeps a removed record (or the closures it captures)
    reachable. *)

val min_time : t -> Simtime.t
(** Deadline of the earliest record without removing it; [max_int]
    when empty, so the run loop's peek allocates nothing. *)

val peek_seq : t -> int
(** Sequence number of the earliest record; [max_int] when empty. *)

val take : t -> Timer_wheel.timer
(** Remove and return the earliest record, as {!remove} does.  The
    queue must be non-empty. *)
