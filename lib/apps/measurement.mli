(** The paper's ttcp + util measurement methodology (§7.1).

    ttcp measures user-process to user-process throughput.  CPU
    utilization cannot be read from ttcp's own accounting because
    interrupt work (ACK handling and the transmissions it triggers) is
    charged to whatever process is running — so a compute-bound,
    low-priority [util] process soaks every spare cycle on the same node,
    and the communication share is computed as

    {v
                   ttcp(user) + ttcp(sys) + util(sys)
      utilization = ----------------------------------------------
                   ttcp(user) + ttcp(sys) + util(sys) + util(user)
    v}

    with the ~7.5% of wall time that disappears into background processes
    excluded from both terms (the paper charges it proportionally). *)

type t = {
  elapsed : Simtime.t;
  throughput_mbit : float;
  ttcp_user : Simtime.t;
  ttcp_sys : Simtime.t;
  util_sys : Simtime.t;
  utilization : float;
  efficiency_mbit : float;
      (** throughput / utilization: Mbit/s a fully busy CPU could carry *)
}

val of_cpu : cpu:Cpu.t -> elapsed:Simtime.t -> bytes:int -> t
(** Reads the ttcp/util buckets off the CPU.  The CPU's idle process must
    have been set to "util" and accounting reset at the measurement
    start. *)

val latency_quantile : Obs.Histogram.t -> float -> Simtime.t
(** [latency_quantile h q] is {!Obs.Histogram.quantile} of a histogram of
    simulated-time latencies, rounded to the nanosecond; 0 when [h] is
    empty. *)
