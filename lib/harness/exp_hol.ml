type row = { ports : int; fifo_util : float; lc_util : float }

type report = row list

let frame_bytes = 32768

let measure discipline ~ports ~seed =
  let sim = Sim.create () in
  let sw =
    Hippi_switch.create ~sim ~ports ~latency:(Simtime.us 1.) discipline
  in
  let rng = Rng.create ~seed in
  let gen = Hippi_traffic.saturate ~switch:sw ~rng ~frame_bytes in
  let u =
    Hippi_traffic.run_measurement ~sim ~switch:sw ~warmup:(Simtime.ms 100.)
      ~window:(Simtime.ms 500.)
  in
  Hippi_traffic.stop gen;
  u

let seed = 20260706

let run () =
  List.map
    (fun ports ->
      {
        ports;
        fifo_util = measure Hippi_switch.Fifo ~ports ~seed;
        lc_util = measure Hippi_switch.Logical_channels ~ports ~seed;
      })
    [ 2; 4; 8; 16; 32 ]

let print report =
  Tabulate.print_header
    "Section 2.1: switch utilization under random traffic (HOL blocking)";
  Printf.printf
    "  (Hluchyj/Karol bound for FIFO inputs: 58%% as N grows; logical\n\
    \   channels are the CAB's fix)\n";
  let widths = [ 8; 12; 18 ] in
  Tabulate.print_row ~widths [ "ports"; "FIFO"; "logical channels" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      Tabulate.print_row ~widths
        [
          string_of_int r.ports;
          Tabulate.fmt_util r.fifo_util;
          Tabulate.fmt_util r.lc_util;
        ])
    report
