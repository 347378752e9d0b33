type row = {
  netmem_pages : int;
  throughput_mbit : float;
  alloc_failures : int;
  retransmits : int;
}

let run ?(pages_list = [ 64; 128; 192; 256; 512; 1024; 4096 ])
    ?(total = 8 * 1024 * 1024) () =
  List.map
    (fun netmem_pages ->
      let tb = Testbed.create ~netmem_pages () in
      match Ttcp.run ~tb ~wsize:(512 * 1024) ~total ~verify:false () with
      | r ->
          {
            netmem_pages;
            throughput_mbit =
              (if r.Ttcp.verified then
                 r.Ttcp.sender.Measurement.throughput_mbit
               else 0. (* connection died before finishing *));
            alloc_failures =
              Netmem.failures (Cab.netmem tb.Testbed.a.Testbed.cab);
            retransmits = r.Ttcp.retransmits;
          }
      | exception Failure _ ->
          {
            netmem_pages;
            throughput_mbit = 0.;
            alloc_failures =
              Netmem.failures (Cab.netmem tb.Testbed.a.Testbed.cab);
            retransmits = -1;
          })
    pages_list

let print rows =
  Tabulate.print_header
    "Outboard memory sizing: throughput vs CAB network memory (512K \
     window)";
  Printf.printf
    "  TCP holds a window of unacknowledged packets outboard; below\n\
    \  ~window + in-flight working space, allocation failures turn into\n\
    \  drops and retransmissions.\n";
  let widths = [ 10; 10; 12; 14; 12 ] in
  Tabulate.print_row ~widths
    [ "pages"; "MBytes"; "tp Mb/s"; "alloc fails"; "retransmits" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      Tabulate.print_row ~widths
        [
          string_of_int r.netmem_pages;
          Printf.sprintf "%.2f"
            (float_of_int (r.netmem_pages * Page.cab_page_size)
            /. 1024. /. 1024.);
          Tabulate.fmt_mbit r.throughput_mbit;
          string_of_int r.alloc_failures;
          (if r.retransmits < 0 then "wedged" else string_of_int r.retransmits);
        ])
    rows
