(** In-kernel network applications (§5).

    Kernel services (file servers, ICMP, ...) use the transport layer
    directly, exchanging mbuf chains — an API with share semantics, so
    over the CAB they get single-copy behaviour automatically on transmit.
    On receive they must never see M_WCAB mbufs: the §5 conversion
    ({!Interop.wcab_to_regular}) runs at the delivery boundary. *)

type sink = {
  mutable received : int;  (** bytes consumed *)
  mutable chains : int;
  mutable converted_in : int;  (** chains that needed WCAB conversion *)
  mutable saw_descriptor : bool;
      (** true if a WCAB/UIO mbuf leaked through the conversion *)
}

val sink_on : stack:Netstack.t -> port:int -> sink
(** Listens on [port]; consumes and discards all data, counting it. *)

val source :
  stack:Netstack.t ->
  dst:Inaddr.t ->
  port:int ->
  total:int ->
  on_done:(unit -> unit) ->
  unit
(** Connects and sends [total] bytes as 32 KByte regular-mbuf chains
    (kernel data: no user copy, no VM work), then closes. *)

val udp_echo : stack:Netstack.t -> port:int -> unit
(** An ICMP-like kernel responder: echoes every UDP datagram back to the
    sender (converting outboard data first). *)
