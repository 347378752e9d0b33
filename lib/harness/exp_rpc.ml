type row = {
  mode : string;
  reads_per_s : float;
  latency_p50 : Simtime.t;
  latency_p99 : Simtime.t;
  server_util : float;
}

let run_one ~mode ~reads =
  let tb = Testbed.create ~mode () in
  let b_host = tb.Testbed.b.Testbed.stack.Netstack.host in
  Cpu.set_idle_proc b_host.Host.cpu "util";
  let _stats =
    Blockfile.serve ~stack:tb.Testbed.b.Testbed.stack ~port:2049 ~blocks:1024
      ()
  in
  let finished = ref None in
  let client_ref = ref None in
  Blockfile.connect ~stack:tb.Testbed.a.Testbed.stack ~server:Testbed.addr_b
    ~port:2049
    ~paths:{ Socket.default_paths with Socket.force_uio = true }
    ~on_ready:(fun client read_block ->
      client_ref := Some client;
      let t0 = Sim.now tb.Testbed.sim in
      Cpu.reset_accounting b_host.Host.cpu;
      let rec loop i =
        if i >= reads then
          finished := Some (Simtime.sub (Sim.now tb.Testbed.sim) t0)
        else read_block (i * 7 mod 1024) ~ok:(fun _ -> loop (i + 1))
      in
      loop 0)
    ();
  Sim.run ~until:(Simtime.s 120.) tb.Testbed.sim;
  match (!finished, !client_ref) with
  | Some elapsed, Some client ->
      if client.Blockfile.read_errors > 0 then
        failwith "Exp_rpc: read errors";
      let m =
        Measurement.of_cpu ~cpu:b_host.Host.cpu ~elapsed
          ~bytes:(reads * Blockfile.block_size)
      in
      {
        mode = Stack_mode.to_string mode;
        reads_per_s =
          float_of_int reads /. Simtime.to_s elapsed;
        latency_p50 =
          Measurement.latency_quantile client.Blockfile.latencies 0.5;
        latency_p99 =
          Measurement.latency_quantile client.Blockfile.latencies 0.99;
        server_util = m.Measurement.utilization;
      }
  | _ -> failwith "Exp_rpc: client never finished"

let run ?(reads = 128) () =
  [
    run_one ~mode:Stack_mode.Unmodified ~reads;
    run_one ~mode:Stack_mode.Single_copy ~reads;
  ]

let print rows =
  Tabulate.print_header
    "Block-read RPC: 32K blocks served by an in-kernel file service";
  Printf.printf "  one outstanding request\n";
  let widths = [ 14; 10; 12; 12; 10 ] in
  Tabulate.print_row ~widths
    [ "stack"; "reads/s"; "lat p50"; "lat p99"; "srv util" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      Tabulate.print_row ~widths
        [
          r.mode;
          Printf.sprintf "%.0f" r.reads_per_s;
          Format.asprintf "%a" Simtime.pp r.latency_p50;
          Format.asprintf "%a" Simtime.pp r.latency_p99;
          Tabulate.fmt_util r.server_util;
        ])
    rows
