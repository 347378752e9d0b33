(** Open-addressed per-shard flow table for the TCP demux.

    Linear probing with backward-shift deletion (no tombstones):
    lookup, insert and close are all O(1) amortized, replacing the
    O(n) assoc-list demux.  Keys are the (lport, rport, raddr) demux
    tuple packed into two ints, paired with the {!Flow_hash} value:
    [ka] = [lport lsl 16 lor rport], [kb] = {!Flow_hash.addr_bits}. *)

type 'v t

val create : ?initial:int -> unit -> 'v t
(** Capacity rounds up to a power of two (minimum 8); the table grows
    by doubling at 3/4 load. *)

val length : 'v t -> int


val find : 'v t -> hash:int -> ka:int -> kb:int -> 'v option

val add : 'v t -> hash:int -> ka:int -> kb:int -> 'v -> unit
(** Replaces the value if the key is already present. *)

val remove : 'v t -> hash:int -> ka:int -> kb:int -> unit
(** No-op if absent.  O(1) amortized (backward-shift, no tombstone). *)
