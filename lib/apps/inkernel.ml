type sink = {
  mutable received : int;
  mutable chains : int;
  mutable converted_in : int;
  mutable saw_descriptor : bool;
}

let sink_on ~stack ~port =
  let s =
    { received = 0; chains = 0; converted_in = 0; saw_descriptor = false }
  in
  let host = stack.Netstack.host in
  Tcp.listen stack.Netstack.tcp ~port ~on_accept:(fun pcb ->
      let iface =
        match Tcp.remote_iface pcb with
        | Some i -> i
        | None -> invalid_arg "Inkernel.sink: no route back"
      in
      let rec drain () =
        match Tcp.recv pcb ~max:max_int with
        | None -> ()
        | Some chain ->
            let converts = List.mem Mbuf.K_wcab (Mbuf.chain_kinds chain) in
            Interop.wcab_to_regular ~host ~iface chain (fun regular ->
                if converts then s.converted_in <- s.converted_in + 1;
                if
                  List.exists
                    (fun k -> k = Mbuf.K_wcab || k = Mbuf.K_uio)
                    (Mbuf.chain_kinds regular)
                then s.saw_descriptor <- true;
                s.received <- s.received + Mbuf.chain_len regular;
                s.chains <- s.chains + 1;
                Mbuf.free regular;
                drain ())
      in
      Tcp.set_callbacks pcb
        ~on_readable:(fun () -> if Tcp.recv_available pcb > 0 then drain ())
        ());
  s

let source ~stack ~dst ~port ~total ~on_done =
  let chunk = 32768 in
  let pcb = ref None in
  let sent = ref 0 in
  let rec push () =
    match !pcb with
    | None -> ()
    | Some p ->
        if !sent >= total then begin
          Tcp.close p;
          on_done ()
        end
        else if Tcp.snd_space p >= chunk then begin
          let n = min chunk (total - !sent) in
          (* Kernel data: already in mbufs, share semantics. *)
          let m = Mbuf.alloc ~pkthdr:true n in
          sent := !sent + n;
          match Tcp.sosend_append p ~proc:"kernel.app" m with
          | Ok () -> push ()
          | Error _ -> on_done ()
        end
  in
  pcb :=
    Some
      (Tcp.connect stack.Netstack.tcp ~dst ~dst_port:port
         ~on_established:(fun () ->
           (match !pcb with
           | Some p -> Tcp.set_callbacks p ~on_sendable:push ()
           | None -> ());
           push ())
         ())

let udp_echo ~stack ~port =
  let host = stack.Netstack.host in
  Udp.bind stack.Netstack.udp ~port (fun ~src dgram ->
      let iface =
        match Ipv4.route_for stack.Netstack.ip ~dst:src.Udp.addr with
        | Some (i, _) -> i
        | None -> invalid_arg "Inkernel.udp_echo: no route back"
      in
      Interop.wcab_to_regular ~host ~iface dgram (fun regular ->
          match
            Udp.sendto stack.Netstack.udp ~proc:"kernel.app"
              ~src_port:port ~dst:src regular
          with
          | Ok () -> ()
          | Error _ -> ()))
