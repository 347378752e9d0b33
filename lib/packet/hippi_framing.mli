(** HIPPI-FP framing used between CAB adaptors.

    A fixed 40-byte header (ten 32-bit words).  The geometry is chosen so
    the receive-side checksum engine's fixed start offset — 20 words = 80
    bytes, as in the paper — lands *inside* the transport header: HIPPI
    (40) + IP (20) = 60 bytes of network headers, so the engine skips the
    first 20 bytes of the transport header and the host adds them back
    (§4.3, receive). *)

type t = {
  src : int;  (** HIPPI switch address of the source *)
  dst : int;
  channel : int;  (** logical channel carrying the packet (§2.1) *)
  payload_len : int;  (** bytes following the HIPPI header *)
}

val size : int
(** 40 *)

val rx_csum_start_words : int
(** 20 — the fixed word offset where the receive checksum engine starts. *)

val encode :
  Bytes.t -> off:int -> src:int -> dst:int -> channel:int -> payload_len:int ->
  unit
(** Write a header at [off] straight from its fields (no record). *)

val decode : Bytes.t -> off:int -> (t, string) result
