(** Network-interface abstraction between the IP layer and device drivers.

    §3 of the paper: "the network device driver has to provide routines to
    transfer packets between host and network memory, copy in and copy out,
    besides the traditional input and output routines."  Legacy devices
    provide only [output]; single-copy devices additionally provide
    [copy_out] (outboard packet data to a host destination) and advertise
    [single_copy] so the socket and transport layers can pick the right
    path per packet. *)

type copy_dest =
  | To_user of Region.t
      (** DMA straight into an application buffer (already pinned/mapped) *)
  | To_kernel of Bytes.t * int
      (** copy into kernel memory at the given offset (conversion shims) *)

type t = {
  name : string;
  addr : Inaddr.t;  (** interface IP address *)
  mtu : int;  (** maximum network-layer packet (IP header + payload) *)
  single_copy : bool;
      (** device supports outboard buffering + checksumming: the one
          place that decides whether a packet routed here takes the
          single-copy path *)
  mutable output : t -> Mbuf.t -> next_hop:Inaddr.t -> unit;
      (** transmit a complete IP packet (chain may contain UIO mbufs only
          when [single_copy]); mutable so observers ({!Capture}) can
          interpose *)
  copy_out :
    (Mbuf.t -> off:int -> len:int -> dst:copy_dest -> on_done:(unit -> unit)
     -> unit)
    option;
      (** move [len] bytes of outboard (WCAB) packet data to the host;
          asynchronous — [on_done] fires when the DMA completes *)
  mutable input : Mbuf.t -> unit;
      (** upcall into the protocol stack; set via [attach_input] *)
  mutable neighbors : (Inaddr.t * int) list;
      (** static ARP-like table: IP next hop -> link address *)
  mutable tx_faults : int;
      (** transmit-side device faults (outboard memory exhausted, adaptor
          reset): monotonic; bumped by the driver, watched by the socket
          layer to penalize the outboard path while the adaptor is sick *)
}

val make :
  name:string ->
  addr:Inaddr.t ->
  mtu:int ->
  ?single_copy:bool ->
  ?copy_out:
    (Mbuf.t -> off:int -> len:int -> dst:copy_dest -> on_done:(unit -> unit)
     -> unit) ->
  output:(t -> Mbuf.t -> next_hop:Inaddr.t -> unit) ->
  unit ->
  t

val attach_input : t -> (Mbuf.t -> unit) -> unit

val deliver : t -> Mbuf.t -> unit
(** Driver-side: hand a received packet (rcvif stamped) to the stack. *)

val add_neighbor : t -> Inaddr.t -> int -> unit
val link_addr : t -> Inaddr.t -> int option
