(** A serially shared resource (IO bus, network link, DMA engine).

    Requests hold the resource for a fixed duration and complete in FIFO
    order.  Unlike {!Cpu} there is no charging — the holder is hardware,
    not a process — but total busy time is tracked so experiments can
    report utilization. *)

type t

val create : sim:Sim.t -> name:string -> t

val name : t -> string

val acquire : t -> Simtime.t -> (unit -> unit) -> unit
(** [acquire r d k]: when the resource becomes free, hold it for [d], then
    call [k]. *)

val busy : t -> bool
val busy_time : t -> Simtime.t
(** Cumulative time the resource has been held. *)
