type row = {
  window : int;
  throughput_mbit : float;
  efficiency_mbit : float;
}

let run () =
  List.map
    (fun window ->
      let tb =
        Testbed.create ~mode:Stack_mode.Unmodified
          ~tcp_config:(fun c ->
            { c with Tcp.snd_buf = window; rcv_buf = window })
          ()
      in
      let r =
        Ttcp.run ~tb ~wsize:65536 ~total:(4 * 1024 * 1024) ~verify:false ()
      in
      {
        window;
        throughput_mbit = r.Ttcp.sender.Measurement.throughput_mbit;
        efficiency_mbit = r.Ttcp.sender.Measurement.efficiency_mbit;
      })
    [ 65536; 131072; 262144; 524288 ]

let print rows =
  Tabulate.print_header
    "Section 7.2: TCP window size vs efficiency (unmodified stack, 64K \
     writes)";
  Printf.printf
    "  \"reducing the TCP window increases efficiency slightly, even\n\
    \   though the throughput is lower\" — the in-flight data is the\n\
    \   checksum pass's cache working set\n";
  let widths = [ 10; 12; 12 ] in
  Tabulate.print_row ~widths [ "window"; "tp Mb/s"; "eff Mb/s" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      Tabulate.print_row ~widths
        [
          Printf.sprintf "%dK" (r.window / 1024);
          Tabulate.fmt_mbit r.throughput_mbit;
          Tabulate.fmt_mbit r.efficiency_mbit;
        ])
    rows
