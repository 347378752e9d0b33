type row = {
  api : string;
  throughput_mbit : float;
  server_util : float;
  server_eff : float;
}

(* Host B serves 8 MByte in 32 KByte blocks to a user-level client on
   host A; the server side is either a user-level socket writer (copy
   API) or an in-kernel source (share API).  Returns B's measurement. *)
let serve ~api =
  let total = 8 * 1024 * 1024 and block = 32 * 1024 in
  let tb = Testbed.create () in
  let b_host = tb.Testbed.b.Testbed.stack.Netstack.host in
  Cpu.set_idle_proc b_host.Host.cpu "util";
  let t_done = ref Simtime.zero in
  let got = ref 0 in
  (* Client on A: user-level reader. *)
  let start_client () =
    let a = tb.Testbed.a.Testbed.stack in
    let pcb = ref None in
    pcb :=
      Some
        (Tcp.connect a.Netstack.tcp ~dst:Testbed.addr_b ~dst_port:2049
           ~on_established:(fun () ->
             let space = Netstack.make_space a ~name:"client" in
             let sock =
               Socket.create ~host:a.Netstack.host ~space ~proc:"ttcp"
                 (Option.get !pcb)
             in
             let buf = Addr_space.alloc space block in
             let rec fetch () =
               Socket.read_exact sock buf (fun n ->
                   got := !got + n;
                   if !got >= total then t_done := Sim.now tb.Testbed.sim
                   else if n > 0 then fetch ())
             in
             fetch ())
           ())
  in
  (match api with
  | `Copy ->
      (* User-level server: blocks live in a user buffer; every send is a
         socket write with copy semantics (single-copy via UIO). *)
      let b = tb.Testbed.b.Testbed.stack in
      Tcp.listen b.Netstack.tcp ~port:2049 ~on_accept:(fun pcb ->
          let sock =
            Socket.create ~host:b_host
              ~space:(Netstack.make_space b ~name:"srv")
              ~proc:"ttcp"
              ~paths:{ Socket.default_paths with Socket.force_uio = true }
              pcb
          in
          let space = Netstack.make_space b ~name:"srvbuf" in
          let buf = Addr_space.alloc space block in
          Region.fill_pattern buf ~seed:1;
          Testbed.write_all sock buf ~total)
  | `Share ->
      (* In-kernel server: mbufs are the shared buffers. *)
      Tcp.listen tb.Testbed.b.Testbed.stack.Netstack.tcp ~port:2049
        ~on_accept:(fun pcb ->
          let sent = ref 0 in
          let rec push () =
            match Tcp.state pcb with
            | Tcp.Established when !sent < total ->
                if Tcp.snd_space pcb >= block then begin
                  let m = Mbuf.alloc ~pkthdr:true block in
                  match Tcp.sosend_append pcb ~proc:"ttcp" m with
                  | Ok () ->
                      sent := !sent + block;
                      push ()
                  | Error _ -> ()
                end
            | Tcp.Established -> Tcp.close pcb
            | _ -> ()
          in
          Tcp.set_callbacks pcb ~on_sendable:push ();
          push ()));
  start_client ();
  Cpu.reset_accounting b_host.Host.cpu;
  let t0 = Sim.now tb.Testbed.sim in
  Sim.run ~until:(Simtime.s 120.) tb.Testbed.sim;
  let elapsed =
    if !t_done > t0 then Simtime.sub !t_done t0
    else Simtime.sub (Sim.now tb.Testbed.sim) t0
  in
  let m = Measurement.of_cpu ~cpu:b_host.Host.cpu ~elapsed ~bytes:!got in
  {
    api = (match api with `Copy -> "copy (sockets)" | `Share -> "share (kernel)");
    throughput_mbit = m.Measurement.throughput_mbit;
    server_util = m.Measurement.utilization;
    server_eff = m.Measurement.efficiency_mbit;
  }

let run () = [ serve ~api:`Copy; serve ~api:`Share ]

let print rows =
  Tabulate.print_header
    "Table 1 live: copy-API vs share-API file server on single-copy \
     hardware";
  Printf.printf
    "  Both are single-copy classes; the copy API's residual cost is the\n\
    \  VM pin/map work and syscall crossings of §4.4.1.\n";
  let widths = [ 16; 12; 12; 12 ] in
  Tabulate.print_row ~widths [ "server API"; "tp Mb/s"; "srv util"; "srv eff" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      Tabulate.print_row ~widths
        [
          r.api;
          Tabulate.fmt_mbit r.throughput_mbit;
          Tabulate.fmt_util r.server_util;
          Tabulate.fmt_mbit r.server_eff;
        ])
    rows
