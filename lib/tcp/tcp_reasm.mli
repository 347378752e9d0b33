(** Out-of-order segment reassembly.

    Holds segments above [rcv_nxt]; {!insert} trims overlap against both
    the current receive point and already-queued segments, and {!take}
    hands back the contiguous run once the gap fills. *)

type t

val create : unit -> t

val bytes_held : t -> int

val insert : t -> rcv_nxt:Tcp_seq.t -> seq:Tcp_seq.t -> Mbuf.t -> unit
(** Stores the segment (taking ownership).  Data at or below [rcv_nxt] and
    exact duplicates are trimmed/freed. *)

val take : t -> rcv_nxt:Tcp_seq.t -> (Mbuf.t * int) list
(** Removes and returns the segments that start exactly at [rcv_nxt] (in
    order, each with its length); the caller advances rcv_nxt by the sum. *)
