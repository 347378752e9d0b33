type leak = { metric : string; baseline : float; final : float }

type seed_report = {
  seed : int;
  completed : bool;
  verified : bool;
  leaks : leak list;
  throughput_mbit : float;
  retransmits : int;
  csum_failures : int;
  frames_corrupted : int;
  frames_dropped : int;
  tx_recoveries : int;
  sdma_timeouts : int;
  adaptor_resets : int;
  pin_fallbacks : int;
  netmem_failures : int;
  events : int;  (** simulator events dispatched over the whole seed *)
  policy : Path_policy.stats option;
  ok : bool;
}

(* The occupancy metrics that must return exactly to baseline once the
   connection is closed, injection disarmed and the simulation quiesced.
   Anything still held afterwards is a leak in a recovery path. *)
let occupancy_metrics =
  [
    ("mbuf_pool", "live");
    ("mbuf_pool", "live_clusters");
    ("bufpool", "outstanding");
    ("addr_space", "pinned_pages");
    ("cab.hostA.cab", "netmem_in_use");
    ("cab.hostB.cab", "netmem_in_use");
  ]

let read_metric (section, name) =
  match Obs.find ~section ~name with
  | Some (Obs.M_gauge f) -> f ()
  | Some (Obs.M_counter c) -> float_of_int (Obs.Counter.get c)
  | _ -> 0.

(* Seed-derived storm: every class of modeled hardware fault at once,
   with rates drawn from the seed so distinct seeds exercise distinct
   interleavings. *)
let storm_plans ~seed =
  let rng = Rng.create ~seed in
  Fault.plan ~site:"wire.corrupt"
    (Fault.Probability (0.005 +. Rng.float rng 0.02));
  Fault.plan ~site:"wire.drop" (Fault.Probability (0.002 +. Rng.float rng 0.006));
  Fault.plan ~site:"cab.sdma_stall"
    (Fault.Probability (0.01 +. Rng.float rng 0.03));
  Fault.plan ~site:"cab.lost_intr"
    (Fault.Probability (0.01 +. Rng.float rng 0.04));
  Fault.plan ~site:"netmem.exhaust" (Fault.Once_at (5 + Rng.int rng 60));
  Fault.plan ~site:"vm.pin_fail" (Fault.Every_n (6 + Rng.int rng 10))

let run_seed ?(wsize = 64 * 1024) ?(total = 2 * 1024 * 1024)
    ?(mode = Stack_mode.Single_copy) ?(plans = fun ~seed -> storm_plans ~seed)
    seed =
  if total mod wsize <> 0 then
    invalid_arg "Exp_soak.run_seed: total must be a multiple of wsize";
  let tb = Testbed.create ~mode ~watchdog:(Simtime.us 500.) () in
  let sim = tb.Testbed.sim in
  let baseline = List.map (fun m -> (m, read_metric m)) occupancy_metrics in
  let csum0 = read_metric ("tcp", "csum_failures_rx") in
  Fault.arm ~seed;
  plans ~seed;
  let paths =
    { Socket.default_paths with Socket.force_uio = false; adaptive = true }
  in
  let finished = ref false in
  let verified = ref true in
  let handles = ref None in
  let window = ref (Simtime.zero, Simtime.zero) in
  Testbed.establish_stream tb ~port:5001 ~a_paths:paths ~b_paths:paths
    (fun sa sb ->
      handles := Some (sa, sb);
      let t0 = Sim.now sim in
      let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"soak" in
      let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"soak" in
      let src = Addr_space.alloc a_space wsize in
      let dst = Addr_space.alloc b_space wsize in
      Region.fill_pattern src ~seed:((seed * 7919) + 17);
      let rec send_loop sent =
        if sent >= total then Socket.close sa
        else Socket.write sa src (fun () -> send_loop (sent + wsize))
      in
      let rec recv_loop got =
        if got >= total then begin
          finished := true;
          window := (t0, Sim.now sim);
          Socket.close sb
        end
        else
          Socket.read_exact sb dst (fun n ->
              if n = 0 then Socket.close sb (* premature EOF: stays unfinished *)
              else begin
                if n = wsize && not (Region.equal_contents src dst) then
                  verified := false;
                recv_loop (got + n)
              end)
      in
      send_loop 0;
      recv_loop 0);
  Sim.run ~until:(Simtime.s 600.) sim;
  Fault.disarm ();
  (* Quiesce: process whatever the storm left queued, poll both adaptors
     in case the last interrupt of the run was swallowed, and flush the
     pin caches so lazily-held pins are released. *)
  let run_slack () = Sim.run ~until:(Simtime.add (Sim.now sim) (Simtime.s 10.)) sim in
  run_slack ();
  let rec drain n =
    if n > 0 then begin
      let pending =
        Cab.poll tb.Testbed.a.Testbed.cab + Cab.poll tb.Testbed.b.Testbed.cab
      in
      run_slack ();
      if pending > 0 then drain (n - 1)
    end
  in
  drain 16;
  (match !handles with
  | Some (sa, sb) ->
      List.iter
        (fun s ->
          match Socket.pin_cache s with
          | Some c -> ignore (Pin_cache.flush c)
          | None -> ())
        [ sa; sb ]
  | None -> ());
  run_slack ();
  let leaks =
    List.filter_map
      (fun ((section, name), b) ->
        let f = read_metric (section, name) in
        if f <> b then
          Some { metric = section ^ "/" ^ name; baseline = b; final = f }
        else None)
      baseline
  in
  let retransmits, pin_fallbacks =
    match !handles with
    | Some (sa, sb) ->
        ( (Tcp.pcb_stats (Socket.pcb sa)).Tcp.retransmits,
          (Socket.stats sa).Socket.pin_fallbacks
          + (Socket.stats sb).Socket.pin_fallbacks )
    | None -> (0, 0)
  in
  let da = Cab_driver.stats tb.Testbed.a.Testbed.driver in
  let db = Cab_driver.stats tb.Testbed.b.Testbed.driver in
  let ca = Cab.stats tb.Testbed.a.Testbed.cab in
  let cb = Cab.stats tb.Testbed.b.Testbed.cab in
  let completed = !finished in
  let verified = !verified in
  let throughput_mbit =
    if completed then
      let t0, t1 = !window in
      float_of_int (total * 8) /. Simtime.to_s (Simtime.sub t1 t0) /. 1e6
    else 0.
  in
  {
    seed;
    completed;
    verified;
    leaks;
    throughput_mbit;
    retransmits;
    csum_failures = int_of_float (read_metric ("tcp", "csum_failures_rx") -. csum0);
    frames_corrupted = Hippi_link.frames_corrupted tb.Testbed.link;
    frames_dropped = Hippi_link.frames_dropped tb.Testbed.link;
    tx_recoveries = ca.Cab.tx_recoveries + cb.Cab.tx_recoveries;
    sdma_timeouts = da.Cab_driver.sdma_timeouts + db.Cab_driver.sdma_timeouts;
    adaptor_resets = da.Cab_driver.adaptor_resets + db.Cab_driver.adaptor_resets;
    pin_fallbacks;
    netmem_failures =
      Netmem.failures (Cab.netmem tb.Testbed.a.Testbed.cab)
      + Netmem.failures (Cab.netmem tb.Testbed.b.Testbed.cab);
    events = Sim.events_fired sim;
    policy =
      (match !handles with
      | Some (sa, _) -> Option.map Path_policy.stats (Socket.path_policy sa)
      | None -> None);
    ok = completed && verified && leaks = [];
  }

let run_storm ?(seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]) ?wsize ?total ?mode () =
  List.map (fun seed -> run_seed ?wsize ?total ?mode seed) seeds

let all_ok reports = List.for_all (fun r -> r.ok) reports
let total_events reports = List.fold_left (fun a r -> a + r.events) 0 reports

let print reports =
  Tabulate.print_header
    "Fault-storm soak: verified transfer + zero occupancy leaks per seed";
  Printf.printf
    "  Each seed arms a derived storm (corruption, drops, SDMA stalls,\n\
    \  lost interrupts, exhaustion, pin failures); data must arrive\n\
    \  byte-identical and every pool must drain back to baseline.\n";
  let widths = [ 6; 5; 9; 7; 7; 7; 8; 8; 7; 7; 6 ] in
  Tabulate.print_row ~widths
    [
      "seed"; "ok"; "verified"; "leaks"; "rexmit"; "csumF"; "corrupt";
      "dropped"; "recov"; "tmout"; "reset";
    ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      Tabulate.print_row ~widths
        [
          string_of_int r.seed;
          (if r.ok then "yes" else "NO");
          (if r.verified then "yes" else "NO");
          string_of_int (List.length r.leaks);
          string_of_int r.retransmits;
          string_of_int r.csum_failures;
          string_of_int r.frames_corrupted;
          string_of_int r.frames_dropped;
          string_of_int r.tx_recoveries;
          string_of_int r.sdma_timeouts;
          string_of_int r.adaptor_resets;
        ];
      List.iter
        (fun l ->
          Printf.printf "    leak %s: baseline %.0f -> final %.0f\n" l.metric
            l.baseline l.final)
        r.leaks)
    reports
