(** Checksum-offload bookkeeping records (§4.3 of the paper).

    Transmit: the transport layer does not touch the data.  It computes a
    *seed* — the pseudo-header sum — and stores it in the packet's checksum
    field, together with the byte offset of that field and the offset where
    the adaptor's checksum engine must start summing.  The engine sums
    everything from [skip_bytes] to the end of the packet during the copy
    into outboard memory; because the seed sits inside the summed range the
    final field value is simply the complement of the engine sum.

    The adaptor keeps the *body* (payload-only) part of the sum with the
    outboard packet so a retransmitted header (with a fresh seed) can be
    combined with the saved body sum without re-reading the data.

    Receive: the engine sums from a fixed word offset [rx_start] to the end
    of the packet while the data flows off the media.  [rx_start] does not
    coincide with the transport header, so the host *adjusts* the engine
    sum: it adds the skipped transport-header bytes and the pseudo-header,
    then checks the total folds to 0xFFFF. *)

type tx = {
  csum_offset : int;  (** byte offset of the 16-bit checksum field *)
  skip_bytes : int;  (** engine sums [skip_bytes, packet_len) *)
  seed : Inet_csum.sum;  (** pseudo-header sum, stored in the field *)
}

val make_tx :
  csum_offset:int -> skip_bytes:int -> seed:Inet_csum.sum -> tx

val tx_finalize : header_sum:Inet_csum.sum -> body_sum:Inet_csum.sum -> int
(** The value the adaptor writes into the checksum field: the complement of
    the engine sums over header range (seed included) and body. *)

type rx = {
  engine_sum : Inet_csum.sum;  (** sum over [rx_start, packet_len) *)
  mutable rx_start : int;
      (** byte offset where the engine started, relative to the packet as
          the current layer sees it: IP moves it back past its header *)
}

val make_rx : engine_sum:Inet_csum.sum -> rx_start:int -> rx

val rx_verify : rx -> skipped:Inet_csum.sum -> pseudo:Inet_csum.sum -> bool
(** [rx_verify r ~skipped ~pseudo]: [skipped] is the host-computed sum of
    the transport-header bytes between the real transport offset and
    [rx_start] (both even in this stack).  Valid iff the combined sum folds
    to 0xFFFF. *)
