(** UDP header (8 bytes).

    §4.3 of the paper notes the hardware always computes a "TCP checksum"
    (a plain ones-complement add) and that this is safe for UDP because a
    ones-complement sum over a packet whose pseudo-header contains non-zero
    address fields can never be 0 — so the 0-means-no-checksum encoding
    never needs the 0xFFFF substitution in practice.  The host-checksum
    path still implements the substitution for strict RFC 768
    conformance.  Senders build the header from a per-flow template
    ({!Udp}); this module decodes it. *)

type t = { src_port : int; dst_port : int; length : int }
(** [length] covers header + payload. *)

val size : int
(** 8 *)

val csum_field_offset : int
(** 6 *)

val decode : Bytes.t -> off:int -> len:int -> (t * int, string) result
(** Returns the header and the raw checksum field. *)
