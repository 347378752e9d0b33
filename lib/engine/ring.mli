(** FIFO of preallocated mutable records: the work queues of {!Cpu},
    {!Resource} and {!Delay_line}, and the adaptor's parked copy-outs and
    pending notifications.

    A queued item is a record the ring already owns, refilled in place,
    so steady-state queueing allocates nothing.  Capacity is a power of
    two and doubles when full, keeping FIFO order. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** [create blank]: an empty ring whose slots [blank] builds (16 at
    first, more on growth). *)

val length : 'a t -> int

val push : 'a t -> 'a
(** The new tail slot, to fill in place. *)

val pop : 'a t -> 'a -> 'a
(** [pop r spare] removes and returns the head record, leaving [spare]
    in its slot for later reuse; the caller owns the returned record.
    The ring must be non-empty. *)

val peek : 'a t -> 'a
(** The head record, left in the ring.  The ring must be non-empty. *)

val drop : 'a t -> unit
(** Remove the head, keeping its record in the ring for a later {!push}
    to refill: read what you need from {!peek} first.  The ring must be
    non-empty. *)
