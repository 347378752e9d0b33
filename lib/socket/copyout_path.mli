(** Shared receive-side delivery for the socket layers.

    Moves one received chain into a user region, segment by segment:
    regular mbufs are host-copied (contiguous storage goes straight in,
    descriptor chains stage through a pooled buffer), M_WCAB segments are
    moved by the interface's copy-out engine into pinned user pages —
    degrading to a kernel staging buffer plus one host copy when the pin
    is refused.  Every host touch is recorded in the {!Obs_ledger} under
    [Sock_rx_copy], so the stream and datagram sockets account for data
    touches identically. *)

(** How one segment was delivered, for the owning socket's counters. *)
type piece =
  | Kernel_copy  (** host-copied *)
  | Copyout  (** moved by the interface's copy-out engine *)
  | Pin_fallback  (** copy-out degraded to kernel staging *)

type ctx = {
  host : Host.t;
  space : Addr_space.t;
  proc : string;  (** process the copy work is charged to *)
  cached : bool;
      (** wire copy-out destinations through the space's pinned-buffer
          cache ({!Addr_space.wire}) *)
  note : piece -> unit;
      (** stats hook, once per segment ([Copyout] and then
          [Pin_fallback] for a degraded one) *)
}

val deliver_chain :
  ctx ->
  iface:Netif.t option ->
  Mbuf.t ->
  Region.t ->
  dst_off:int ->
  limit:int ->
  (unit -> unit) ->
  unit
(** [deliver_chain ctx ~iface chain region ~dst_off ~limit k] lands the
    first [limit] bytes of [chain] at [region]\[[dst_off]…\], frees the
    chain once every piece (sync copies and async DMA copy-outs) has
    arrived, then calls [k]. *)
