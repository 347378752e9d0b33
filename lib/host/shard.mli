(** One receive-side-scaling shard of a host.

    A shard owns a CPU of its own; its flow table lives in [Tcp].  The
    buffer pools are process-wide and the listener table is per host:
    pool residency costs no simulated time, and every shard would hold
    the same listeners.  CAB batch interrupts are steered to the
    shard owning the flow (RSS hash over the 4-tuple), so driver
    completions, rx pipelining and TCP processing all charge the right
    CPU.  Shard 0 of a 1-shard host is the host's classic single CPU. *)

type t = {
  id : int;
  cpu : Cpu.t;
  mutable intr_batches : int;  (** interrupt batches steered here *)
  mutable intr_events : int;  (** rx/completion events in those batches *)
  mutable steered_default : int;
      (** events that fell through the classifier (non-TCP, short head) *)
}

val make : id:int -> cpu:Cpu.t -> t

val note_batch : t -> int -> unit
(** Record delivery of an [n]-event interrupt batch to this shard. *)

val note_default : t -> unit
(** Record an event that the steering classifier could not hash. *)

val register_obs : host:string -> t array -> unit
(** Register per-shard occupancy/steering gauges under the Obs
    ["shard"] section, prefixed with the host name.  Only called for
    multi-shard hosts so single-shard runs keep their registry
    byte-identical. *)
