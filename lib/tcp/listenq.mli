(** Bounded listener queues: SYN (half-open) table + accept FIFO.

    One instance sits behind each listening port.  Half-open entries are
    keyed by a caller-packed int (remote address/port — the local tuple
    is constant per listener); completed connections wait in the accept
    FIFO until the application pops them.  Both structures enforce their
    bound at insert time and report overflow to the caller, which picks
    the policy (drop, RST, SYN cookie).

    Generic in both element types so the model test can run the exact
    production structure against an assoc-list oracle. *)

type ('h, 'a) t
(** ['h] = half-open record, ['a] = accept-queue element. *)

val create : syn_backlog:int -> backlog:int -> ('h, 'a) t
(** Raises [Invalid_argument] when either bound is [<= 0]. *)

val backlog : ('h, 'a) t -> int

(** {1 SYN (half-open) table} *)

val syn_count : ('h, 'a) t -> int
val syn_full : ('h, 'a) t -> bool
val syn_find : ('h, 'a) t -> int -> 'h option

val syn_add : ('h, 'a) t -> int -> 'h -> bool
(** [false] when the table is at [syn_backlog] (entry not inserted).
    Replacing an existing key always succeeds. *)

val syn_remove : ('h, 'a) t -> int -> unit
val syn_iter : (int -> 'h -> unit) -> ('h, 'a) t -> unit

val syn_drain : ('h -> unit) -> ('h, 'a) t -> unit
(** Remove every entry, calling [f] on each (listener close). *)

(** {1 Accept queue} *)

val acc_count : ('h, 'a) t -> int
val acc_full : ('h, 'a) t -> bool

val acc_push : ('h, 'a) t -> 'a -> bool
(** [false] when the queue is at [backlog] (element not queued). *)

val acc_pop : ('h, 'a) t -> 'a option

val acc_drain : ('a -> unit) -> ('h, 'a) t -> unit
(** Remove every queued element, calling [f] on each (listener close). *)
