type node = {
  stack : Netstack.t;
  cab : Cab.t;
  driver : Cab_driver.t;
}

type t = {
  sim : Sim.t;
  link : Hippi_link.t;
  a : node;
  b : node;
}

let addr_a = Inaddr.v 10 0 0 1
let addr_b = Inaddr.v 10 0 0 2

let create ?(profile = Host_profile.alpha400)
    ?(mode = Stack_mode.Single_copy) ?(mtu = 32 * 1024)
    ?(netmem_pages = 4096) ?tcp_config ?(drop_a_frames = [])
    ?(drop_b_frames = []) ?watchdog ?(shards = 1) ?link_rate
    () =
  let sim = Sim.create () in
  (* Packet-trace timestamps come from this testbed's simulator; a new
     testbed retargets the (process-global) tracer clock. *)
  Obs_trace.set_clock (fun () -> Sim.now sim);
  let link =
    match link_rate with
    | None -> Hippi_link.create ~sim ()
    | Some rate -> Hippi_link.create ~sim ~rate ()
  in
  let a_frame_count = ref 0 in
  let b_frame_count = ref 0 in
  let mk_node ~name ~side ~hippi_addr ~addr =
    let stack =
      Netstack.create ~sim ~profile ~name ~mode ?tcp_config ~shards ()
    in
    let cab =
      Cab.create ~sim ~profile ~name:(name ^ ".cab") ~netmem_pages
        ~hippi_addr
        ~transmit:(fun frame ~dst:_ ~channel:_ ->
          let counter, drops =
            match side with
            | Hippi_link.A -> (a_frame_count, drop_a_frames)
            | Hippi_link.B -> (b_frame_count, drop_b_frames)
          in
          let i = !counter in
          incr counter;
          if not (List.mem i drops) then
            Hippi_link.send link ~from:side frame
          else
            (* The dropped frame never reaches the link: recycle its
               buffer so the shared pool's get/put balance stays exact. *)
            Bufpool.put Bufpool.shared frame)
        ()
    in
    let driver =
      Netstack.attach_cab stack ~cab ~addr ~mtu ?watchdog ()
    in
    { stack; cab; driver }
  in
  let a = mk_node ~name:"hostA" ~side:Hippi_link.A ~hippi_addr:1 ~addr:addr_a in
  let b = mk_node ~name:"hostB" ~side:Hippi_link.B ~hippi_addr:2 ~addr:addr_b in
  Hippi_link.set_rx link Hippi_link.B (fun f -> Cab.deliver b.cab f);
  Hippi_link.set_rx link Hippi_link.A (fun f -> Cab.deliver a.cab f);
  Cab_driver.add_neighbor a.driver addr_b ~hippi_addr:2;
  Cab_driver.add_neighbor b.driver addr_a ~hippi_addr:1;
  { sim; link; a; b }

let establish_stream t ~port ?a_paths ?b_paths k =
  let a_sock = ref None and b_sock = ref None in
  let maybe_go () =
    match (!a_sock, !b_sock) with
    | Some sa, Some sb -> k sa sb
    | _ -> ()
  in
  Tcp.listen t.b.stack.Netstack.tcp ~port ~on_accept:(fun pcb ->
      let space = Netstack.make_space t.b.stack ~name:"srv" in
      b_sock :=
        Some
          (Socket.create ~host:t.b.stack.Netstack.host ~space ~proc:"ttcp"
             ?paths:b_paths pcb);
      maybe_go ());
  let pcb = ref None in
  pcb :=
    Some
      (Tcp.connect t.a.stack.Netstack.tcp ~dst:addr_b ~dst_port:port
         ~on_established:(fun () ->
           let space = Netstack.make_space t.a.stack ~name:"cli" in
           a_sock :=
             Some
               (Socket.create ~host:t.a.stack.Netstack.host ~space
                  ~proc:"ttcp" ?paths:a_paths (Option.get !pcb));
           maybe_go ())
         ())
