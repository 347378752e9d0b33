type row = {
  cpu_factor : float;
  unmod_eff : float;
  smod_eff : float;
  advantage : float;
}

let derive_profile (p : Host_profile.t) ~cpu_factor =
  let f = cpu_factor in
  {
    p with
    Host_profile.name = Printf.sprintf "%s-x%.0f" p.Host_profile.name f;
    per_packet_us = p.Host_profile.per_packet_us /. f;
    ack_us = p.Host_profile.ack_us /. f;
    intr_us = p.Host_profile.intr_us /. f;
    syscall_us = p.Host_profile.syscall_us /. f;
    sb_wait_us = p.Host_profile.sb_wait_us /. f;
    pin_base_us = p.Host_profile.pin_base_us /. f;
    pin_page_us = p.Host_profile.pin_page_us /. f;
    unpin_base_us = p.Host_profile.unpin_base_us /. f;
    unpin_page_us = p.Host_profile.unpin_page_us /. f;
    map_base_us = p.Host_profile.map_base_us /. f;
    map_page_us = p.Host_profile.map_page_us /. f;
    dma_post_us = p.Host_profile.dma_post_us /. f;
  }

let run ?(factors = [ 1.; 2.; 4.; 8. ]) ?(total = 8 * 1024 * 1024) () =
  List.map
    (fun cpu_factor ->
      let profile = derive_profile Host_profile.alpha400 ~cpu_factor in
      let eff mode =
        let tb = Testbed.create ~profile ~mode () in
        (Ttcp.run ~tb ~wsize:(512 * 1024) ~total ~verify:false ()).Ttcp.sender
          .Measurement.efficiency_mbit
      in
      let unmod_eff = eff Stack_mode.Unmodified in
      let smod_eff = eff Stack_mode.Single_copy in
      {
        cpu_factor;
        unmod_eff;
        smod_eff;
        advantage = (if unmod_eff > 0. then smod_eff /. unmod_eff else 0.);
      })
    factors

let print rows =
  Tabulate.print_header
    "Section 1 motivation: CPU speed scaling against a fixed memory \
     system (512K writes)";
  Printf.printf
    "  CPU-bound costs shrink by f; copy/checksum bandwidths stay fixed.\n\
    \  The unmodified stack hits the memory wall; single-copy keeps \
     scaling.\n";
  let widths = [ 10; 12; 12; 12 ] in
  Tabulate.print_row ~widths
    [ "cpu x"; "unmod eff"; "1copy eff"; "advantage" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      Tabulate.print_row ~widths
        [
          Printf.sprintf "%.0fx" r.cpu_factor;
          Tabulate.fmt_mbit r.unmod_eff;
          Tabulate.fmt_mbit r.smod_eff;
          Printf.sprintf "%.2fx" r.advantage;
        ])
    rows
