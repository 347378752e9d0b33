(** Shared receive-side delivery for the socket layers.

    Moves one received chain into a user region, segment by segment:
    regular mbufs are host-copied (contiguous storage goes straight in,
    descriptor chains stage through a pooled buffer), M_WCAB segments are
    moved by the interface's copy-out engine into pinned user pages —
    degrading to a kernel staging buffer plus one host copy when the pin
    is refused.  Every host touch is recorded in the {!Obs_ledger} under
    [Sock_rx_copy], so the stream and datagram sockets account for data
    touches identically. *)

type ctx = {
  host : Host.t;
  space : Addr_space.t;
  proc : string;  (** process the copy work is charged to *)
  cache : Pin_cache.t option;
      (** pin-cache for copy-out destinations; [None] pins through
          {!Addr_space.try_pin} directly *)
  on_kernel_copy : int -> unit;  (** stats hook: host-copied segment *)
  on_copyout : int -> unit;  (** stats hook: engine-moved segment *)
  on_pin_fallback : int -> unit;
      (** stats hook: copy-out degraded to kernel staging *)
}

val try_wire : ctx -> Region.t -> (Simtime.t, Simtime.t) result
(** Pin and map a region for DMA, through the pin cache when there is
    one: [Ok cost] when wired, [Error wasted] when the kernel refused the
    pin (the ["vm.pin_fail"] fault site), where [wasted] is work already
    done (cache evictions) before the refusal. *)

val unwire : ctx -> Region.t -> Simtime.t
(** Undo {!try_wire}; returns the cost of the release. *)

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
