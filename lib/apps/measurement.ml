type t = {
  elapsed : Simtime.t;
  throughput_mbit : float;
  ttcp_user : Simtime.t;
  ttcp_sys : Simtime.t;
  util_sys : Simtime.t;
  utilization : float;
  efficiency_mbit : float;
}

let unaccounted_fraction = 0.075

let of_cpu ~cpu ~elapsed ~bytes =
  let ttcp_user = Cpu.charged cpu ~proc:"ttcp" ~mode:Cpu.User in
  let ttcp_sys = Cpu.charged cpu ~proc:"ttcp" ~mode:Cpu.Sys in
  let util_sys = Cpu.charged cpu ~proc:"util" ~mode:Cpu.Sys in
  (* Everything else the CPU did during the window counts as communication
     too (kernel-context sends); the paper's methodology folds it into the
     system buckets because those kernel threads run in interrupt or
     process context that ttcp/util happen to own.  Here other buckets are
     rare (forwarding); add them to ttcp_sys for the same reason. *)
  let other =
    List.fold_left
      (fun acc proc ->
        if proc = "ttcp" || proc = "util" then acc
        else
          acc
          + Cpu.charged cpu ~proc ~mode:Cpu.User
          + Cpu.charged cpu ~proc ~mode:Cpu.Sys)
      0 (Cpu.procs cpu)
  in
  let ttcp_sys = ttcp_sys + other in
  let comm = ttcp_user + ttcp_sys + util_sys in
  let background =
    int_of_float (unaccounted_fraction *. float_of_int elapsed)
  in
  (* Spare cycles: what util got to compute. *)
  let util_user = max 0 (elapsed - comm - background) in
  let denom = comm + util_user in
  let utilization =
    if denom = 0 then 0. else float_of_int comm /. float_of_int denom
  in
  let throughput_mbit = Simtime.rate_mbit ~bytes elapsed in
  let efficiency_mbit =
    if utilization > 0. then throughput_mbit /. utilization else 0.
  in
  {
    elapsed;
    throughput_mbit;
    ttcp_user;
    ttcp_sys;
    util_sys;
    utilization;
    efficiency_mbit;
  }

let latency_quantile h q =
  match Obs.Histogram.quantile h q with
  | Some ns -> Float.to_int (Float.round ns)
  | None -> 0
