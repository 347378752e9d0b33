type point = {
  wsize : int;
  unmod_tp : float;
  unmod_util : float;
  unmod_eff : float;
  smod_tp : float;
  smod_util : float;
  smod_eff : float;
  raw_tp : float;
  unmod_rx_util : float;
  smod_rx_util : float;
}

type report = { profile : Host_profile.t; points : point list }

let default_sizes =
  [ 1024; 2048; 4096; 8192; 16384; 32768; 65536; 131072; 262144; 524288 ]

let run_point ~profile ~min_total wsize =
  let total =
    let t = max min_total (32 * wsize) in
    t / wsize * wsize
  in
  let ttcp mode =
    let tb = Testbed.create ~profile ~mode () in
    Ttcp.run ~tb ~wsize ~total ~force_uio:true ~verify:false ()
  in
  let u = ttcp Stack_mode.Unmodified in
  let m = ttcp Stack_mode.Single_copy in
  let raw =
    let tb = Testbed.create ~profile () in
    Raw_hippi.run ~tb ~packet_size:(min wsize 32768) ~total
  in
  {
    wsize;
    unmod_tp = u.Ttcp.sender.Measurement.throughput_mbit;
    unmod_util = u.Ttcp.sender.Measurement.utilization;
    unmod_eff = u.Ttcp.sender.Measurement.efficiency_mbit;
    smod_tp = m.Ttcp.sender.Measurement.throughput_mbit;
    smod_util = m.Ttcp.sender.Measurement.utilization;
    smod_eff = m.Ttcp.sender.Measurement.efficiency_mbit;
    raw_tp = raw;
    unmod_rx_util = u.Ttcp.receiver.Measurement.utilization;
    smod_rx_util = m.Ttcp.receiver.Measurement.utilization;
  }

let run ?(sizes = default_sizes) ?(min_total = 2 * 1024 * 1024) ~profile () =
  { profile; points = List.map (run_point ~profile ~min_total) sizes }

let widths = [ 8; 9; 9; 9; 9; 9; 9; 9; 9; 9 ]

let print ~figure report =
  Tabulate.print_header
    (Printf.sprintf
       "%s: throughput / utilization / efficiency vs read/write size (%s)"
       figure report.profile.Host_profile.name);
  Printf.printf
    "  (tp/util/eff are sender-side; rxu columns confirm the paper's note\n\
    \   that receiver utilization behaves the same)\n";
  Tabulate.print_row ~widths
    [ "size"; "unm tp"; "unm util"; "unm eff"; "mod tp"; "mod util";
      "mod eff"; "raw tp"; "unm rxu"; "mod rxu" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun p ->
      Tabulate.print_row ~widths
        [
          (if p.wsize >= 1024 then Printf.sprintf "%dK" (p.wsize / 1024)
           else string_of_int p.wsize);
          Tabulate.fmt_mbit p.unmod_tp;
          Tabulate.fmt_util p.unmod_util;
          Tabulate.fmt_mbit p.unmod_eff;
          Tabulate.fmt_mbit p.smod_tp;
          Tabulate.fmt_util p.smod_util;
          Tabulate.fmt_mbit p.smod_eff;
          Tabulate.fmt_mbit p.raw_tp;
          Tabulate.fmt_util p.unmod_rx_util;
          Tabulate.fmt_util p.smod_rx_util;
        ])
    report.points

let plot_charts ~figure report =
  let labels =
    List.map
      (fun p ->
        if p.wsize >= 1024 then Printf.sprintf "%dK" (p.wsize / 1024)
        else string_of_int p.wsize)
      report.points
  in
  Ascii_plot.plot
    ~title:
      (Printf.sprintf "%s(c): efficiency (Mbit/s) vs read/write size" figure)
    ~x_labels:labels
    ~series:
      [
        ('u', "unmodified stack", List.map (fun p -> p.unmod_eff) report.points);
        ('m', "single-copy stack", List.map (fun p -> p.smod_eff) report.points);
      ]
    ();
  Ascii_plot.plot
    ~title:
      (Printf.sprintf "%s(a): throughput (Mbit/s) vs read/write size" figure)
    ~x_labels:labels
    ~series:
      [
        ('u', "unmodified stack", List.map (fun p -> p.unmod_tp) report.points);
        ('m', "single-copy stack", List.map (fun p -> p.smod_tp) report.points);
        ('r', "raw HIPPI", List.map (fun p -> p.raw_tp) report.points);
      ]
    ()

let crossover report =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if a.smod_eff < a.unmod_eff && b.smod_eff >= b.unmod_eff then
          Some (a.wsize, b.wsize)
        else go rest
    | _ -> None
  in
  go report.points

let large_write_efficiency_ratio report =
  match List.rev report.points with
  | last :: _ when last.unmod_eff > 0. -> last.smod_eff /. last.unmod_eff
  | _ -> 0.
