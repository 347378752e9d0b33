(** A serially shared resource (IO bus, network link, DMA engine) that
    owns its queue of jobs.

    Holds last a fixed duration and complete in FIFO order.  Each queued
    hold carries a caller-defined job record: the resource keeps one per
    ring slot, preallocated and refilled in place, and hands the finished
    one to a single completion function installed with {!set_finished}.
    Unlike {!Cpu} there is no charging — the holder is hardware, not a
    process — but total busy time is tracked so experiments can report
    utilization. *)

type 'a t

val create : sim:Sim.t -> (unit -> 'a) -> 'a t
(** [create ~sim blank]: an idle resource whose job records [blank]
    builds (16 at first, more as the queue grows). *)

val set_finished : 'a t -> ('a -> unit) -> unit
(** Install the completion function, once, before the first hold (as
    {!Sim.set_fn} does for a timer built idle).  It runs when a hold ends
    and receives that hold's job record, which the resource then reuses:
    it must read what it needs and drop the record's references.  Holds
    it queues start after it returns. *)

val acquire : 'a t -> Simtime.t -> 'a
(** [acquire r d]: queue a hold of [d], starting at once if [r] is idle.
    Returns the hold's job record for the caller to fill in place before
    it yields to the scheduler.  Allocates nothing once the queue has
    grown to its working depth. *)

val busy : 'a t -> bool
val busy_time : 'a t -> Simtime.t
(** Cumulative time the resource has been held. *)
