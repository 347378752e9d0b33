(** IP fragment reassembly.

    Fragments are copied into a host reassembly buffer as they arrive
    (classic BSD behaviour — fragmentation is the slow path; outboard
    fragment tails are pulled in with a charged copy).  A datagram is
    complete when bytes [0, total) are covered and the final (MF=0)
    fragment has arrived.  An incomplete datagram expires 200 ms of
    simulated time after its first fragment arrives. *)

type t

val create : host:Host.t -> t

val input :
  t -> hdr:Ipv4_header.t -> Mbuf.t -> (Ipv4_header.t * Mbuf.t) option
(** Feed one fragment (payload chain, IP header already stripped; the
    chain is consumed).  Returns the reassembled datagram — a header with
    fragmentation cleared and a regular-mbuf payload — when complete. *)
