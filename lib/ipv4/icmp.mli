(** ICMP — the paper's example of a low-bandwidth in-kernel application
    (§5).  Runs entirely in the kernel on regular mbufs; incoming messages
    that arrive with outboard data are converted by the stack's delivery
    shim before they reach this code (echo payloads are usually small
    enough to arrive complete anyway).

    Implemented: echo request/reply, destination unreachable, time
    exceeded (hooked into the forwarding path). *)

type t

val create : ip:Ipv4.t -> t
(** Registers protocol 1 and installs the error-generation hooks into the
    IP layer. *)

val ping :
  t ->
  dst:Inaddr.t ->
  ?size:int ->
  on_reply:(seq:int -> rtt:Simtime.t -> unit) ->
  unit ->
  unit
(** Sends one echo request ([size] payload bytes, default 56) and calls
    [on_reply] when the matching reply arrives. *)

val on_error : t -> (kind:[ `Unreachable | `Time_exceeded ] -> src:Inaddr.t -> unit) -> unit
(** Notification when an ICMP error message addressed to this host
    arrives. *)
