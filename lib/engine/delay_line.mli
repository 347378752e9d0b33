(** A delay line: values pushed with an arrival time, delivered in push
    order at that time by one reusable timer.

    The arrival times must be non-decreasing — true wherever a serializing
    stage (a link direction, a switch output, a shared medium) feeds the
    line, so the head is always the next arrival.  The timer is armed by
    a push only when idle; each arrival delivers the head first and then
    re-arms at the next head.  Entries live in preallocated {!Ring}
    slots, so a push allocates nothing once the ring has grown. *)

type 'a t

val create : sim:Sim.t -> empty:'a -> 'a t
(** An idle line.  [empty] overwrites each delivered value's slot, so the
    line keeps no reference to what it has delivered. *)

val set_deliver : 'a t -> ('a -> unit) -> unit
(** Install the delivery function, once, before the first push (as
    {!Sim.set_fn} does for a timer built idle). *)

val push : 'a t -> Simtime.t -> 'a -> unit
(** [push l due v]: deliver [v] at absolute time [due] (>= now, and no
    earlier than any value already queued). *)
