let force_uio = { Socket.default_paths with Socket.force_uio = true }

(* One stream on a fresh testbed: the sender rewrites one 64 KB buffer
   (page-aligned, or two bytes into a page) until 2 MB are sent,
   charging no loop cost; the receiver reads into one buffer.  Returns
   the sender's measurement and socket. *)
let single_buffer_stream ~paths ~aligned ~seed =
  let wsize = 65536 and total = 2 * 1024 * 1024 in
  let tb = Testbed.create () in
  let cpu = tb.Testbed.a.Testbed.stack.Netstack.host.Host.cpu in
  let finished = ref None in
  Testbed.establish_stream tb ~port:5001 ~a_paths:paths (fun sa sb ->
      let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"b" in
      let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"b" in
      let src =
        if aligned then Addr_space.alloc a_space wsize
        else Addr_space.alloc_at_offset a_space ~page_offset:2 wsize
      in
      let dst = Addr_space.alloc b_space wsize in
      Region.fill_pattern src ~seed;
      Cpu.reset_accounting cpu;
      Cpu.set_idle_proc cpu "util";
      let t0 = Sim.now tb.Testbed.sim in
      Testbed.write_all sa src ~total;
      let rec recv got =
        if got >= total then finished := Some (t0, Sim.now tb.Testbed.sim, sa)
        else
          Socket.read_exact sb dst (fun n ->
              if n = 0 then finished := Some (t0, Sim.now tb.Testbed.sim, sa)
              else recv (got + n))
      in
      recv 0);
  Sim.run ~until:(Simtime.s 120.) tb.Testbed.sim;
  match !finished with
  | None -> failwith "single-buffer stream did not complete"
  | Some (t0, t1, sa) ->
      (Measurement.of_cpu ~cpu ~elapsed:(Simtime.sub t1 t0) ~bytes:total, sa)

(* ---------------- alignment (§4.5) ---------------- *)

let print_alignment () =
  Tabulate.print_header
    "Section 4.5: word-aligned vs unaligned application buffers \
     (single-copy stack)";
  Printf.printf
    "  ('fixed-up' implements the optimization the paper describes but did\n\
    \   not implement: a short leading copy realigns the bulk for DMA)\n";
  let widths = [ 12; 10; 8; 10; 12; 12 ] in
  Tabulate.print_row ~widths
    [ "buffer"; "tp Mb/s"; "util"; "eff Mb/s"; "uio writes"; "fallbacks" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun (label, aligned, paths) ->
      let m, sa = single_buffer_stream ~paths ~aligned ~seed:3 in
      let st = Socket.stats sa in
      Tabulate.print_row ~widths
        [
          label;
          Tabulate.fmt_mbit m.Measurement.throughput_mbit;
          Tabulate.fmt_util m.Measurement.utilization;
          Tabulate.fmt_mbit m.Measurement.efficiency_mbit;
          string_of_int st.Socket.uio_writes;
          string_of_int st.Socket.unaligned_fallbacks;
        ])
    [
      ("aligned", true, force_uio);
      ("unaligned", false, force_uio);
      ("fixed-up", false, { force_uio with Socket.align_fixup = true });
    ]

(* ---------------- pin cache (§4.4.1) ---------------- *)

let print_pin_cache () =
  Tabulate.print_header
    "Section 4.4.1: pinned-buffer cache amortization (buffer reused by \
     every write)";
  let widths = [ 12; 10; 8; 10; 8; 8 ] in
  Tabulate.print_row ~widths
    [ "pin cache"; "tp Mb/s"; "util"; "eff Mb/s"; "hits"; "misses" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun use_cache ->
      let paths =
        { force_uio with Socket.use_pin_cache = use_cache }
      in
      let m, sa = single_buffer_stream ~paths ~aligned:true ~seed:4 in
      let space = Socket.space sa in
      Tabulate.print_row ~widths
        [
          (if use_cache then "on" else "off");
          Tabulate.fmt_mbit m.Measurement.throughput_mbit;
          Tabulate.fmt_util m.Measurement.utilization;
          Tabulate.fmt_mbit m.Measurement.efficiency_mbit;
          string_of_int (Addr_space.cache_hits space);
          string_of_int (Addr_space.cache_misses space);
        ])
    [ true; false ];
  (* Microbenchmark: cached wiring cost under reuse vs cycling. *)
  let profile = Host_profile.alpha400 in
  let space = Addr_space.create ~pin_budget:64 ~profile ~name:"pc" () in
  let wire region = Result.get_ok (Addr_space.wire space region ~cached:true) in
  let bufs = List.init 16 (fun _ -> Addr_space.alloc space 65536) in
  let reuse_cost = ref 0 and cycle_cost = ref 0 in
  let first = List.hd bufs in
  for _ = 1 to 64 do
    reuse_cost := !reuse_cost + wire first
  done;
  for i = 1 to 64 do
    cycle_cost := !cycle_cost + wire (List.nth bufs (i mod 16))
  done;
  Printf.printf
    "\n  acquire cost over 64 ops: reuse one buffer %.1f us total; cycle 16 \
     buffers through a 64-page budget %.1f us total\n"
    (Simtime.to_us !reuse_cost)
    (Simtime.to_us !cycle_cost)

(* ---------------- auto-DMA threshold sweep ---------------- *)

let print_autodma_sweep () =
  Tabulate.print_header
    "Section 4.4.3 / 2.2: receive efficiency vs auto-DMA threshold L";
  let widths = [ 10; 12; 10; 10; 12 ] in
  Tabulate.print_row ~widths
    [ "L (words)"; "tp Mb/s"; "rx util"; "rx eff"; "wcab rx" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun words ->
      let tb = Testbed.create () in
      Cab.set_autodma_words tb.Testbed.b.Testbed.cab words;
      let r =
        Ttcp.run ~tb ~wsize:32768 ~total:(2 * 1024 * 1024) ~verify:false ()
      in
      Tabulate.print_row ~widths
        [
          string_of_int words;
          Tabulate.fmt_mbit r.Ttcp.receiver.Measurement.throughput_mbit;
          Tabulate.fmt_util r.Ttcp.receiver.Measurement.utilization;
          Tabulate.fmt_mbit r.Ttcp.receiver.Measurement.efficiency_mbit;
          string_of_int
            (Cab_driver.stats tb.Testbed.b.Testbed.driver)
            .Cab_driver.rx_wcab_delivered;
        ])
    [ 32; 64; 176; 512; 2048; 8192 ]

(* ---------------- §5 interoperability scenarios ---------------- *)

(* Two hosts, each with a CAB (10.0.0.x/24) and an Ethernet (10.0.1.x/24). *)
type world = {
  sim : Sim.t;
  a : Netstack.t;
  b : Netstack.t;
  a_eth_drv : Ether_driver.t;
  b_eth_drv : Ether_driver.t;
}

let build_world () =
  (* Mixed media: cap the MSS so segments fit the smallest interface —
     a route change must not strand packets bigger than the new MTU. *)
  let tb =
    Testbed.create ~netmem_pages:2048
      ~tcp_config:(fun c -> { c with Tcp.mss_cap = Some 1400 })
      ()
  in
  let sim = tb.Testbed.sim in
  let a = tb.Testbed.a.Testbed.stack and b = tb.Testbed.b.Testbed.stack in
  (* Fast Ethernet so the interop experiments finish quickly. *)
  let seg = Etherdev.create_segment ~sim ~rate:(100e6 /. 8.) () in
  let dev_a = Etherdev.attach seg ~mac:0xa and dev_b = Etherdev.attach seg ~mac:0xb in
  let a_eth_drv =
    Netstack.attach_ether a ~dev:dev_a ~addr:(Inaddr.v 10 0 1 1)
  in
  let b_eth_drv =
    Netstack.attach_ether b ~dev:dev_b ~addr:(Inaddr.v 10 0 1 2)
  in
  Ether_driver.add_neighbor a_eth_drv (Inaddr.v 10 0 1 2) ~mac:0xb;
  Ether_driver.add_neighbor b_eth_drv (Inaddr.v 10 0 1 1) ~mac:0xa;
  { sim; a; b; a_eth_drv; b_eth_drv }

(* A user socket on B accepts on [port] and reads [total] bytes;
   [on_read] gets the count. *)
let user_sink w ~port ~total on_read =
  Tcp.listen w.b.Netstack.tcp ~port ~on_accept:(fun pcb ->
      let space = Netstack.make_space w.b ~name:"u" in
      let sock = Socket.create ~host:w.b.Netstack.host ~space ~proc:"app" pcb in
      Socket.read_exact sock (Addr_space.alloc space total) on_read)

let print_interop () =
  Tabulate.print_header
    "Section 5: interoperability — legacy devices and in-kernel \
     applications";
  let total = 256 * 1024 in
  (* 1. user sockets over the legacy Ethernet (single-copy stack). *)
  let w = build_world () in
  let done1 = ref false in
  user_sink w ~port:7001 ~total (fun n -> done1 := n = total);
  Testbed.send_stream w.a ~dst:(Inaddr.v 10 0 1 2) ~port:7001 ~proc:"app"
    ~wsize:total ~total ~seed:9;
  Sim.run ~until:(Simtime.s 60.) w.sim;
  Printf.printf
    "  1. user sockets over legacy Ethernet          : %s (socket took the \
     copy path; %d driver conversions)\n"
    (if !done1 then "ok" else "FAILED")
    (Ether_driver.stats w.a_eth_drv).Ether_driver.tx_converted;
  (* 2. in-kernel source -> in-kernel sink over the CAB. *)
  let w = build_world () in
  let sink = Inkernel.sink_on ~stack:w.b ~port:7002 in
  let sent = ref false in
  Inkernel.source ~stack:w.a ~dst:Testbed.addr_b ~port:7002 ~total
    ~on_done:(fun () -> sent := true);
  Sim.run ~until:(Simtime.s 60.) w.sim;
  Printf.printf
    "  2. in-kernel apps over the CAB                : %s (%d bytes; %d \
     chains WCAB-converted before the app; descriptor leak: %b)\n"
    (if !sent && sink.Inkernel.received = total then "ok" else "FAILED")
    sink.Inkernel.received sink.Inkernel.converted_in
    sink.Inkernel.saw_descriptor;
  (* 3. user socket sender -> in-kernel sink over the CAB. *)
  let w = build_world () in
  let sink = Inkernel.sink_on ~stack:w.b ~port:7003 in
  Testbed.send_stream w.a ~dst:Testbed.addr_b ~port:7003 ~proc:"app"
    ~wsize:total ~total ~seed:11;
  Sim.run ~until:(Simtime.s 60.) w.sim;
  Printf.printf
    "  3. user socket -> in-kernel app over the CAB  : %s (%d bytes; %d \
     conversions)\n"
    (if sink.Inkernel.received = total then "ok" else "FAILED")
    sink.Inkernel.received sink.Inkernel.converted_in;
  (* 4. route change mid-transfer: queued M_UIO data drains through the
     legacy driver's conversion shim. *)
  let w = build_world () in
  let got4 = ref 0 in
  user_sink w ~port:7004 ~total (fun n -> got4 := n);
  Testbed.send_stream w.a ~dst:Testbed.addr_b ~port:7004 ~proc:"app"
    ~wsize:total ~total ~seed:13;
  (* After 2 ms, reroute 10.0.0.2 over the Ethernet (host route wins by
     prefix length).  Queued descriptor data must convert at the legacy
     driver. *)
  ignore
    (Sim.after w.sim (Simtime.ms 2.) (fun () ->
         Netstack.add_route w.a ~prefix:Testbed.addr_b ~len:32
           ~gateway:(Inaddr.v 10 0 1 2)
           (Ether_driver.iface w.a_eth_drv);
         Netstack.add_route w.b ~prefix:Testbed.addr_a ~len:32
           ~gateway:(Inaddr.v 10 0 1 1)
           (Ether_driver.iface w.b_eth_drv)));
  Sim.run ~until:(Simtime.s 60.) w.sim;
  Printf.printf
    "  4. route change CAB->Ethernet mid-transfer    : %s (%d/%d bytes; %d \
     UIO chains converted at the legacy driver)\n"
    (if !got4 = total then "ok" else "FAILED")
    !got4 total
    (Ether_driver.stats w.a_eth_drv).Ether_driver.tx_converted

(* ---------------- small-write policy ablation ---------------- *)

let print_small_write_policies () =
  let total = 1 lsl 20 in
  Tabulate.print_header
    "Section 4.4.3 / 7.1 ablation: small-write policies on the single-copy \
     stack";
  Printf.printf
    "  forced   : always UIO, one packet per write (the paper's setup)\n\
    \  fallback : writes below 16K take the copying path\n\
    \  coalesce : UIO packets may span write boundaries (the paper's stack\n\
    \             deliberately did not do this)\n";
  let widths = [ 8; 11; 11; 11; 11; 11; 11 ] in
  Tabulate.print_row ~widths
    [ "size"; "forced tp"; "forced eff"; "fallbk tp"; "fallbk eff";
      "coal tp"; "coal eff" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun wsize ->
      let forced =
        let tb = Testbed.create () in
        Ttcp.run ~tb ~wsize ~total ~force_uio:true ~verify:false ()
      in
      let fallback =
        let tb = Testbed.create () in
        Ttcp.run ~tb ~wsize ~total ~force_uio:false ~verify:false ()
      in
      let coalesce =
        let tb =
          Testbed.create
            ~tcp_config:(fun c -> { c with Tcp.coalesce_descriptors = true })
            ()
        in
        Ttcp.run ~tb ~wsize ~total ~force_uio:true ~verify:false ()
      in
      Tabulate.print_row ~widths
        [
          string_of_int wsize;
          Tabulate.fmt_mbit forced.Ttcp.sender.Measurement.throughput_mbit;
          Tabulate.fmt_mbit forced.Ttcp.sender.Measurement.efficiency_mbit;
          Tabulate.fmt_mbit fallback.Ttcp.sender.Measurement.throughput_mbit;
          Tabulate.fmt_mbit fallback.Ttcp.sender.Measurement.efficiency_mbit;
          Tabulate.fmt_mbit coalesce.Ttcp.sender.Measurement.throughput_mbit;
          Tabulate.fmt_mbit coalesce.Ttcp.sender.Measurement.efficiency_mbit;
        ])
    [ 1024; 4096; 8192; 16384 ]
