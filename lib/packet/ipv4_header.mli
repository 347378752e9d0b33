(** IPv4 header encode/decode (20 bytes, no options).

    The stack computes and verifies the IP *header* checksum on the host —
    the CAB checksums only transport payloads; "it does not speak IP". *)

type t = {
  tos : int;
  total_len : int;  (** header + payload, bytes *)
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;  (** in 8-byte units *)
  ttl : int;
  proto : int;
  src : Inaddr.t;
  dst : Inaddr.t;
}

val size : int
(** 20 *)

val proto_tcp : int
val proto_udp : int
val proto_icmp : int

val make :
  ?tos:int ->
  ?ident:int ->
  ?ttl:int ->
  proto:int ->
  src:Inaddr.t ->
  dst:Inaddr.t ->
  total_len:int ->
  unit ->
  t

val encode : t -> Bytes.t -> off:int -> unit
(** Writes the header with a correct header checksum. *)

val check : Bytes.t -> off:int -> (unit, string) result
(** Validates version, header length, total length and header checksum
    without building the record: allocates nothing. *)

val decode : Bytes.t -> off:int -> (t, string) result
(** {!check}, then the record. *)

val pp : Format.formatter -> t -> unit
