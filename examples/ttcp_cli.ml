(* A ttcp-style command line around the simulator: choose the stack
   variant, host profile, write size and volume, and get the paper's
   measurement report (§7.1 methodology).

   Examples:
     dune exec examples/ttcp_cli.exe -- --mode unmodified -l 32768 -n 16
     dune exec examples/ttcp_cli.exe -- --profile alpha300lx -l 524288
     dune exec examples/ttcp_cli.exe -- --drop 3 --drop 5   (loss injection) *)

open Cmdliner

let run mode_s profile_s wsize nbufs drops no_force trace timeline =
  let mode =
    match mode_s with
    | "unmodified" -> Stack_mode.Unmodified
    | "single-copy" -> Stack_mode.Single_copy
    | s ->
        Printf.eprintf "unknown mode %S (unmodified|single-copy)\n" s;
        exit 2
  in
  let profile =
    match Host_profile.by_name profile_s with
    | Some p -> p
    | None ->
        Printf.eprintf "unknown profile %S (alpha400|alpha300lx)\n" profile_s;
        exit 2
  in
  let total = wsize * nbufs in
  let tb = Testbed.create ~profile ~mode ~drop_a_frames:drops () in
  let cap =
    if trace > 0 then
      Some
        (Capture.attach ~sim:tb.Testbed.sim
           (Cab_driver.iface tb.Testbed.a.Testbed.driver))
    else None
  in
  (* Sample host B's adaptor receive counter every 10 ms.  The periodic
     tick re-arms before its callback runs, so pending <= 1 there means
     the transfer has fully drained and the tick stops itself instead of
     keeping the simulation alive. *)
  let every = Simtime.ms 10. in
  let series =
    if timeline then begin
      let sim = tb.Testbed.sim in
      let s =
        Obs_series.create ~capacity:4096 ~interval:every
          ~metrics:[ ("cab.hostB.cab", "rx_bytes") ]
      in
      let handle = ref None in
      handle :=
        Some
          (Sim.periodic sim ~every (fun () ->
               Obs_series.tick s ~now:(Sim.now sim);
               if Sim.pending sim <= 1 then Option.iter (Sim.stop sim) !handle));
      Some s
    end
    else None
  in
  let r = Ttcp.run ~tb ~wsize ~total ~force_uio:(not no_force) () in
  (match cap with
  | Some cap ->
      Printf.printf "--- packet trace (sender interface) ---\n";
      Capture.dump ~limit:trace Format.std_formatter cap;
      Format.pp_print_flush Format.std_formatter ()
  | None -> ());
  Printf.printf "ttcp-t: buflen=%d, nbuf=%d, %s stack, %s host\n" wsize nbufs
    (Stack_mode.to_string mode) profile.Host_profile.name;
  Printf.printf "ttcp-t: %d bytes in %.3f real seconds = %.1f Mbit/sec\n"
    total
    (Simtime.to_s r.Ttcp.sender.Measurement.elapsed)
    r.Ttcp.sender.Measurement.throughput_mbit;
  let pr side (m : Measurement.t) =
    Printf.printf
      "%s: cpu %.1f%% (user %.1fms sys %.1fms util-sys %.1fms) -> \
       efficiency %.1f Mbit/s\n"
      side
      (100. *. m.Measurement.utilization)
      (Simtime.to_ms m.Measurement.ttcp_user)
      (Simtime.to_ms m.Measurement.ttcp_sys)
      (Simtime.to_ms m.Measurement.util_sys)
      m.Measurement.efficiency_mbit
  in
  pr "sender  " r.Ttcp.sender;
  pr "receiver" r.Ttcp.receiver;
  Printf.printf "data verified: %b; retransmissions: %d\n" r.Ttcp.verified
    r.Ttcp.retransmits;
  Printf.printf "write latency: p50 ~%s, p99 ~%s\n"
    (Format.asprintf "%a" Simtime.pp r.Ttcp.write_latency_p50)
    (Format.asprintf "%a" Simtime.pp r.Ttcp.write_latency_p99);
  (match series with
  | Some s ->
      (* Each row holds the running byte count; consecutive differences
         are the bytes received per 10 ms. *)
      let rows = ref [] in
      Obs_series.iter s (fun ~time ~row -> rows := (time, row.(0)) :: !rows);
      let rows = List.rev !rows in
      let _, rates =
        List.fold_left_map
          (fun prev (_, v) ->
            (v, Simtime.rate_mbit ~bytes:(int_of_float (v -. prev)) every))
          0. rows
      in
      let labels =
        List.mapi
          (fun i (time, _) ->
            if i mod 10 = 0 then Printf.sprintf "%.0f" (Simtime.to_ms time)
            else "")
          rows
      in
      Ascii_plot.plot ~height:10
        ~title:"receive throughput over time (ms, 10ms samples)"
        ~x_labels:labels
        ~series:[ ('#', "received by host B's adaptor", rates) ]
        ()
  | None -> ());
  if r.Ttcp.retransmits > 0 then
    Printf.printf
      "  (retransmits found data outboard %d times -> header rewrite, no \
       payload re-DMA)\n"
      r.Ttcp.sender_tcp.Tcp.wcab_retransmit_hits

let mode_arg =
  Arg.(value & opt string "single-copy"
       & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"Stack: unmodified or single-copy.")

let profile_arg =
  Arg.(value & opt string "alpha400"
       & info [ "profile"; "p" ] ~docv:"HOST" ~doc:"Host profile: alpha400 or alpha300lx.")

let wsize_arg =
  Arg.(value & opt int 65536
       & info [ "l"; "length" ] ~docv:"BYTES" ~doc:"Write/read size.")

let nbufs_arg =
  Arg.(value & opt int 64
       & info [ "n"; "numbufs" ] ~docv:"N" ~doc:"Number of writes.")

let drop_arg =
  Arg.(value & opt_all int []
       & info [ "drop" ] ~docv:"I" ~doc:"Drop the I-th frame sent by the sender (repeatable).")

let noforce_arg =
  Arg.(value & flag
       & info [ "no-force-uio" ]
           ~doc:"Let small writes fall back to the copying path (default \
                 forces the single-copy path as in the paper's runs).")

let timeline_arg =
  Arg.(value & flag
       & info [ "timeline" ]
           ~doc:"Plot receive throughput over time (shows retransmission \
                 dips under --drop).")

let trace_arg =
  Arg.(value & opt int 0
       & info [ "trace" ] ~docv:"N"
           ~doc:"Dump the first N packets seen at the sender's interface.")

let cmd =
  Cmd.v
    (Cmd.info "ttcp_cli" ~doc:"ttcp over the simulated CAB testbed")
    Term.(const run $ mode_arg $ profile_arg $ wsize_arg $ nbufs_arg
          $ drop_arg $ noforce_arg $ trace_arg $ timeline_arg)

let () = exit (Cmd.eval cmd)
