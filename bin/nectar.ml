(* The `nectar` command-line front end.

   Subcommands:
     nectar reproduce [TARGET...]   regenerate the paper's tables/figures
     nectar ttcp [...]              one ttcp run with full knobs
     nectar ping [...]              ICMP echo over the simulated testbed
     nectar inventory               what is in this reproduction *)

open Cmdliner

(* ---------------- reproduce ---------------- *)

let reproduce targets =
  let expand = function
    | "paper" -> Targets.paper
    | "all" -> Targets.all
    | t -> [ t ]
  in
  let targets = if targets = [] then [ "paper" ] else targets in
  (* Every name is checked before the first target runs. *)
  let runs =
    List.map
      (fun t ->
        match Targets.find t with
        | Some run -> run
        | None ->
            Printf.eprintf "unknown target %S; known: paper all %s\n" t
              (String.concat " " Targets.all);
            exit 2)
      (List.concat_map expand targets)
  in
  List.iter (fun run -> run ()) runs

let reproduce_cmd =
  let targets =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET" ~doc:"Targets to regenerate (default: paper).")
  in
  Cmd.v
    (Cmd.info "reproduce"
       ~doc:"Regenerate the paper's tables and figures (see bench/main.exe \
             for the same functionality plus microbenchmarks)")
    Term.(const reproduce $ targets)

(* ---------------- ttcp ---------------- *)

let ttcp mode_s wsize nbufs =
  let mode =
    if mode_s = "unmodified" then Stack_mode.Unmodified
    else Stack_mode.Single_copy
  in
  let tb = Testbed.create ~mode () in
  let r = Ttcp.run ~tb ~wsize ~total:(wsize * nbufs) () in
  Printf.printf "%d bytes, %s stack: %.1f Mbit/s; sender util %.3f (eff %.1f)\n"
    (wsize * nbufs) (Stack_mode.to_string mode)
    r.Ttcp.sender.Measurement.throughput_mbit
    r.Ttcp.sender.Measurement.utilization
    r.Ttcp.sender.Measurement.efficiency_mbit

let ttcp_cmd =
  let mode =
    Arg.(value & opt string "single-copy" & info [ "mode" ] ~docv:"MODE")
  in
  let wsize = Arg.(value & opt int 65536 & info [ "l" ] ~docv:"BYTES") in
  let nbufs = Arg.(value & opt int 64 & info [ "n" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "ttcp" ~doc:"One ttcp run on the simulated testbed")
    Term.(const ttcp $ mode $ wsize $ nbufs)

(* ---------------- ping ---------------- *)

let ping count size =
  let tb = Testbed.create () in
  let icmp = Icmp.create ~ip:tb.Testbed.a.Testbed.stack.Netstack.ip in
  let _ = Icmp.create ~ip:tb.Testbed.b.Testbed.stack.Netstack.ip in
  let replies = ref 0 in
  let rec go n =
    if n < count then
      Icmp.ping icmp ~dst:Testbed.addr_b ~size
        ~on_reply:(fun ~seq ~rtt ->
          incr replies;
          Printf.printf "%d bytes from %s: icmp_seq=%d time=%.3f ms\n" size
            (Inaddr.to_string Testbed.addr_b)
            seq (Simtime.to_ms rtt);
          go (n + 1))
        ()
  in
  go 0;
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  Printf.printf "%d packets transmitted, %d received\n" count !replies

let ping_cmd =
  let count = Arg.(value & opt int 4 & info [ "c"; "count" ] ~docv:"N") in
  let size = Arg.(value & opt int 56 & info [ "s"; "size" ] ~docv:"BYTES") in
  Cmd.v
    (Cmd.info "ping" ~doc:"ICMP echo through the simulated CAB testbed")
    Term.(const ping $ count $ size)

(* ---------------- inventory ---------------- *)

let inventory () =
  print_string
    "nectar: a simulation reproduction of 'Software Support for Outboard\n\
     Buffering and Checksumming' (Kleinpaste, Steenkiste, Zill; SIGCOMM '95)\n\n\
     Systems built (lib/):\n\
    \  engine    discrete-event core: clock, events, CPU + accounting, \
     resources\n\
    \  memory    regions, page math, host cost profiles (alpha400, \
     alpha300lx)\n\
    \  vm        address spaces, pin/unpin/map (Table 2 costs), pin cache\n\
    \  checksum  ones-complement arithmetic + offload records (seed/skip)\n\
    \  mbuf      BSD mbufs + M_UIO / M_WCAB descriptor types\n\
    \  packet    IPv4 / TCP / UDP / HIPPI-FP / Ethernet wire formats\n\
    \  hippi     100 MB/s links; crossbar switch (FIFO vs logical channels)\n\
    \  cab       the Gigabit Nectar adaptor: netmem, SDMA/MDMA, checksum \
     engines\n\
    \  etherdev  legacy shared-segment Ethernet\n\
    \  netif     driver abstraction (output / copy-out)\n\
    \  ipv4      routing, forwarding, fragmentation, ICMP\n\
    \  tcp       sliding window, RFC1323 scaling, mixed-mbuf send queue,\n\
    \            checksum offload, WCAB retransmit, go-back-N + fast rexmt\n\
    \  udp       datagrams with offloaded checksums\n\
    \  socket    copy-semantics sockets: UIO path, VM work, DMA sync\n\
    \  core      CAB/Ethernet/loopback drivers, interop shims, stack \
     assembly,\n\
    \            Table-1 taxonomy, the two-host testbed\n\
    \  apps      ttcp + util methodology, raw HIPPI, in-kernel apps\n\
    \  harness   experiment definitions for every table and figure\n\n\
     Entry points:\n\
    \  dune runtest                 the full test suite\n\
    \  dune exec bench/main.exe     every table + figure + microbenchmarks\n\
    \  dune exec examples/...       quickstart, ttcp_cli, file_server,\n\
    \                               udp_stream, router\n"

let inventory_cmd =
  Cmd.v (Cmd.info "inventory" ~doc:"What is in this reproduction")
    Term.(const inventory $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "nectar" ~version:"1.0"
             ~doc:"SIGCOMM '95 outboard buffering & checksumming, simulated")
          [ reproduce_cmd; ttcp_cmd; ping_cmd; inventory_cmd ]))
