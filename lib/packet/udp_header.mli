(** UDP header (8 bytes).

    §4.3 of the paper notes the hardware always computes a "TCP checksum"
    (a plain ones-complement add) and that this is safe for UDP because a
    ones-complement sum over a packet whose pseudo-header contains non-zero
    address fields can never be 0 — so the 0-means-no-checksum encoding
    never needs the 0xFFFF substitution in practice.  [encode] still
    implements the substitution for strict RFC 768 conformance. *)

type t = { src_port : int; dst_port : int; length : int }
(** [length] covers header + payload. *)

val size : int
(** 8 *)

val csum_field_offset : int
(** 6 *)

val make : src_port:int -> dst_port:int -> length:int -> t

val encode : t -> csum:int -> Bytes.t -> off:int -> unit
(** Writes the header; a [csum] of 0 is stored as 0xFFFF per RFC 768
    (0 in the field means "no checksum"). *)

val encode_raw : t -> csum:int -> Bytes.t -> off:int -> unit
(** Like [encode] but stores [csum] verbatim — used on the offload path
    where the field temporarily holds the seed. *)

val decode : Bytes.t -> off:int -> len:int -> (t * int, string) result
(** Returns the header and the raw checksum field. *)
