(** Synthetic traffic generation for the head-of-line blocking experiment.

    Saturating sources: every input port keeps 8 frames queued with
    uniformly random destinations, the regime of the Hluchyj/Karol 58%
    result the paper cites in §2.1. *)

type t

val saturate : switch:Hippi_switch.t -> rng:Rng.t -> frame_bytes:int -> t
(** Attaches a saturating source to every input port.  No frame is
    addressed to its own input port unless the switch has only one. *)

val stop : t -> unit
(** Stops refilling; queued frames drain normally. *)

val run_measurement :
  sim:Sim.t ->
  switch:Hippi_switch.t ->
  warmup:Simtime.t ->
  window:Simtime.t ->
  float
(** Runs the simulation through a warmup then a measurement window and
    returns mean output utilization during the window. *)
