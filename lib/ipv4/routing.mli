(** Longest-prefix-match routing table.

    §4.1 of the paper argues for a single stack partly because "routing
    relies on a single stack, at least up to the network layer" — this
    table is that shared piece: it can return any interface, single-copy or
    legacy, for a destination, and the choice may change over time (a
    more specific route added later wins at once). *)

type t

val create : unit -> t

val add_route :
  t -> prefix:Inaddr.t -> len:int -> ?gateway:Inaddr.t -> Netif.t -> unit

val lookup : t -> Inaddr.t -> (Netif.t * Inaddr.t) option
(** Longest-prefix match; returns the interface and the next-hop address
    (the destination itself when on-link). *)
