(** Epoll-shaped readiness multiplexing for sockets and listeners.

    One poller drives an arbitrary number of sockets ({!Socket.t}) and
    listeners ({!Tcp.listener}) with O(ready) cost per {!wait}: items
    enqueue themselves on an internal ready list when their readiness
    hook fires (edge), and [wait] filters that list against the
    level-triggered predicates ({!Socket.readable}, {!Socket.writable},
    {!Tcp.listener_pending}) so callers never see stale events and a
    still-ready item is reported again on the next wait without a new
    edge — epoll's level-triggered contract.

    Single-waiter by design: the simulated server's event loop is one
    process.  [wait] parks its continuation when nothing is ready and
    the next readiness edge resumes it. *)

type item = Sock of Socket.t | Listener of Tcp.listener

type entry
(** Registration handle; stable for the item's lifetime. *)

type event = {
  ev_item : item;
  ev_data : int;  (** the cookie passed at registration *)
  ev_readable : bool;
  ev_writable : bool;
  ev_acceptable : bool;
}
(** A closed socket is reported regardless of interest (possibly with
    every flag false), so the caller reaps it. *)

type t

val create : unit -> t

val add_socket : t -> data:int -> Socket.t -> entry
(** Register a socket for read and write readiness; installs the
    socket's event hook.  Reports an immediate event if already ready. *)

val add_listener : t -> data:int -> Tcp.listener -> entry
(** Register a listener for accept readiness. *)

val remove : t -> entry -> unit
(** Unregister.  O(1): the entry is tombstoned and dropped from the
    ready list lazily. *)

val wait : t -> (event list -> unit) -> unit
(** Deliver the current ready set, or park the continuation until at
    least one item becomes ready.  At most one waiter at a time. *)

val poll : t -> event list
(** Non-blocking {!wait}: the current ready set, possibly empty. *)
