type row = {
  senders : int;
  aggregate_mbit : float;
  rx_util : float;
  rx_efficiency : float;
}

type report = { mode : Stack_mode.t; rows : row list }

(* The host on switch port [port]: a CAB node whose media hook submits
   to [sw] and whose port delivers to its CAB. *)
let switch_node ~sim ~profile ~mode ~sw ~netmem_pages ~name ~port ~addr =
  let n =
    Testbed.make_node ~sim ~profile ~mode ~name ~netmem_pages ~hippi_addr:port
      ~transmit:(fun frame ~dst ~channel:_ ->
        Hippi_switch.submit sw ~src:port ~dst frame)
      ~addr ()
  in
  Hippi_switch.attach sw ~port (fun f -> Cab.deliver n.Testbed.cab f);
  (n.Testbed.stack, n.Testbed.driver)

(* Accepts every connection on port 5001 of [stack] and reads each into
   a reused 64 KB buffer.  [on_accept ()] gives the connection's read
   handler, which takes each read's byte count and says whether to read
   on. *)
let sink_all stack ~proc on_accept =
  Tcp.listen stack.Netstack.tcp ~port:5001 ~on_accept:(fun pcb ->
      let space = Netstack.make_space stack ~name:"rx" in
      let sock = Socket.create ~host:stack.Netstack.host ~space ~proc pcb in
      let buf = Addr_space.alloc space 65536 in
      let on_read = on_accept () in
      let rec drain () =
        Socket.read sock buf (fun n -> if n > 0 && on_read n then drain ())
      in
      drain ())

(* Build a star of alpha300lx hosts: senders on switch ports 0..n-1, the
   receiver on port n. *)
let run_one ~mode ~senders ~per_sender =
  let sim = Sim.create () in
  let sw =
    Hippi_switch.create ~sim ~ports:(senders + 1)
      Hippi_switch.Logical_channels
  in
  let mk_node =
    switch_node ~sim ~profile:Host_profile.alpha300lx ~mode ~sw
      ~netmem_pages:2048
  in
  let rx_addr = Inaddr.v 10 0 0 100 in
  let rx_stack, rx_driver =
    mk_node ~name:"rx" ~port:senders ~addr:rx_addr
  in
  let tx =
    List.init senders (fun i ->
        let stack, driver =
          mk_node
            ~name:(Printf.sprintf "tx%d" i)
            ~port:i
            ~addr:(Inaddr.v 10 0 0 (i + 1))
        in
        Cab_driver.add_neighbor driver rx_addr ~hippi_addr:senders;
        Cab_driver.add_neighbor rx_driver
          (Inaddr.v 10 0 0 (i + 1))
          ~hippi_addr:i;
        stack)
  in
  (* Receiver: accept every connection, drain into a reused buffer. *)
  let rx_host = rx_stack.Netstack.host in
  Cpu.set_idle_proc rx_host.Host.cpu "util";
  let total_expected = senders * per_sender in
  let got = ref 0 in
  let t_done = ref Simtime.zero in
  sink_all rx_stack ~proc:"ttcp" (fun () n ->
      got := !got + n;
      if !got >= total_expected then t_done := Sim.now sim;
      true);
  (* Senders: everyone starts together. *)
  List.iter
    (fun stack ->
      Testbed.send_stream stack ~dst:rx_addr ~port:5001 ~proc:"ttcp"
        ~wsize:65536 ~total:per_sender ~seed:7)
    tx;
  let t0 = Sim.now sim in
  Cpu.reset_accounting rx_host.Host.cpu;
  Sim.run ~until:(Simtime.s 300.) sim;
  let elapsed =
    if !t_done > t0 then Simtime.sub !t_done t0 else Simtime.sub (Sim.now sim) t0
  in
  let m =
    Measurement.of_cpu ~cpu:rx_host.Host.cpu ~elapsed ~bytes:!got
  in
  {
    senders;
    aggregate_mbit = m.Measurement.throughput_mbit;
    rx_util = m.Measurement.utilization;
    rx_efficiency = m.Measurement.efficiency_mbit;
  }

let run ?(senders_list = [ 1; 2; 4; 8 ]) ?(per_sender = 2 * 1024 * 1024)
    ~mode () =
  {
    mode;
    rows =
      List.map
        (fun senders -> run_one ~mode ~senders ~per_sender)
        senders_list;
  }

let print report =
  Tabulate.print_header
    (Printf.sprintf
       "Incast: N senders -> 1 receiver through the switch (%s stack, \
        alpha300lx receiver)"
       (Stack_mode.to_string report.mode));
  let widths = [ 9; 16; 9; 10 ] in
  Tabulate.print_row ~widths [ "senders"; "aggregate Mb/s"; "rx util"; "rx eff" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      Tabulate.print_row ~widths
        [
          string_of_int r.senders;
          Tabulate.fmt_mbit r.aggregate_mbit;
          Tabulate.fmt_util r.rx_util;
          Tabulate.fmt_mbit r.rx_efficiency;
        ])
    report.rows


(* ---------------- all-to-all through the switch ---------------- *)

type allpairs_row = {
  hosts : int;
  fifo_aggregate_mbit : float;
  lc_aggregate_mbit : float;
}

let run_all_pairs_one ~mac ~hosts ~per_flow =
  let sim = Sim.create () in
  (* A deliberately slow fabric (4 MByte/s ports): hosts can saturate
     their output links, so input queueing — and with FIFO inputs,
     head-of-line blocking — actually occurs.  At full HIPPI rate the
     TurboChannel-limited hosts never contend and both MACs coincide. *)
  let sw = Hippi_switch.create ~sim ~ports:hosts ~rate:4e6 mac in
  let nodes =
    Array.init hosts (fun port ->
        switch_node ~sim ~profile:Host_profile.alpha400
          ~mode:Stack_mode.Single_copy ~sw
          ~netmem_pages:4096 ~name:(Printf.sprintf "h%d" port) ~port
          ~addr:(Inaddr.v 10 0 0 (port + 1)))
  in
  Array.iteri
    (fun i (_, di) ->
      Array.iteri
        (fun j _ ->
          if i <> j then
            Cab_driver.add_neighbor di (Inaddr.v 10 0 0 (j + 1)) ~hippi_addr:j)
        nodes)
    nodes;
  (* Every ordered pair (i, j), i <> j, gets a flow i -> j. *)
  let flows = hosts * (hosts - 1) in
  let done_flows = ref 0 in
  let t_done = ref Simtime.zero in
  Array.iter
    (fun (stack_j, _) ->
      sink_all stack_j ~proc:"app" (fun () ->
          let got = ref 0 in
          fun n ->
            got := !got + n;
            if !got < per_flow then true
            else begin
              incr done_flows;
              if !done_flows = flows then t_done := Sim.now sim;
              false
            end))
    nodes;
  Array.iteri
    (fun i (stack_i, _) ->
      Array.iteri
        (fun j _ ->
          if i <> j then
            Testbed.send_stream stack_i
              ~dst:(Inaddr.v 10 0 0 (j + 1))
              ~port:5001 ~proc:"app" ~wsize:32768 ~total:per_flow
              ~seed:(i + j))
        nodes)
    nodes;
  let t0 = Sim.now sim in
  Sim.run ~until:(Simtime.s 300.) sim;
  let elapsed =
    if !t_done > t0 then Simtime.sub !t_done t0
    else Simtime.sub (Sim.now sim) t0
  in
  Simtime.rate_mbit ~bytes:(!done_flows * per_flow) elapsed

let run_all_pairs ?(hosts_list = [ 2; 4; 6 ]) ?(per_flow = 1 lsl 20) () =
  List.map
    (fun hosts ->
      {
        hosts;
        fifo_aggregate_mbit =
          run_all_pairs_one ~mac:Hippi_switch.Fifo ~hosts ~per_flow;
        lc_aggregate_mbit =
          run_all_pairs_one ~mac:Hippi_switch.Logical_channels ~hosts ~per_flow;
      })
    hosts_list

let print_all_pairs rows =
  Tabulate.print_header
    "All-to-all through the switch: FIFO vs logical channels (full stack)";
  let widths = [ 8; 16; 20 ] in
  Tabulate.print_row ~widths [ "hosts"; "FIFO Mb/s"; "log.channels Mb/s" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      Tabulate.print_row ~widths
        [
          string_of_int r.hosts;
          Tabulate.fmt_mbit r.fifo_aggregate_mbit;
          Tabulate.fmt_mbit r.lc_aggregate_mbit;
        ])
    rows
