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

let make_node ~sim ~profile ~mode ~name ?tcp_config ?shards ~netmem_pages
    ~hippi_addr ~transmit ~addr ?mtu ?watchdog () =
  let stack = Netstack.create ~sim ~profile ~name ~mode ?tcp_config ?shards () in
  let cab =
    Cab.create ~sim ~profile ~name:(name ^ ".cab") ~netmem_pages ~hippi_addr
      ~transmit ()
  in
  let driver = Netstack.attach_cab stack ~cab ~addr ?mtu ?watchdog () in
  { stack; cab; driver }

(* [f] summed over every address space of both hosts. *)
let sum_spaces t f =
  let node n =
    List.fold_left (fun acc sp -> acc + f sp) 0 n.stack.Netstack.spaces
  in
  node t.a + node t.b

let create ?(profile = Host_profile.alpha400)
    ?(mode = Stack_mode.Single_copy) ?(mtu = 32 * 1024)
    ?(netmem_pages = 4096) ?tcp_config ?(drop_a_frames = [])
    ?(drop_b_frames = []) ?watchdog ?(shards = 1) ?link_rate
    () =
  let sim = Sim.create () in
  (* Packet-trace timestamps come from this testbed's simulator; a new
     testbed retargets the (process-global) tracer clock. *)
  Obs_trace.set_clock (fun () -> Sim.now sim);
  let link = Hippi_link.create ~sim ?rate:link_rate () in
  let mk_node ~name ~side ~drops ~hippi_addr ~addr =
    let sent = ref 0 in
    let transmit frame ~dst:_ ~channel:_ =
      let i = !sent in
      incr sent;
      if not (List.mem i drops) then Hippi_link.send link ~from:side frame
      else
        (* The dropped frame never reaches the link: recycle its buffer
           so the shared pool's get/put balance stays exact. *)
        Bufpool.put Bufpool.shared frame
    in
    make_node ~sim ~profile ~mode ~name ?tcp_config ~shards ~netmem_pages
      ~hippi_addr ~transmit ~addr ~mtu ?watchdog ()
  in
  let a =
    mk_node ~name:"hostA" ~side:Hippi_link.A ~drops:drop_a_frames ~hippi_addr:1
      ~addr:addr_a
  in
  let b =
    mk_node ~name:"hostB" ~side:Hippi_link.B ~drops:drop_b_frames ~hippi_addr:2
      ~addr:addr_b
  in
  Hippi_link.set_rx link Hippi_link.B (fun f -> Cab.deliver b.cab f);
  Hippi_link.set_rx link Hippi_link.A (fun f -> Cab.deliver a.cab f);
  Cab_driver.add_neighbor a.driver addr_b ~hippi_addr:2;
  Cab_driver.add_neighbor b.driver addr_a ~hippi_addr:1;
  let t = { sim; link; a; b } in
  (* Like [sim/*], the latest testbed's pins answer for the section. *)
  let pins name f =
    Obs.gauge ~section:"addr_space" ~name (fun () ->
        float_of_int (sum_spaces t f))
  in
  pins "pinned_pages" Addr_space.pinned_pages;
  pins "uncached_pin_refs" Addr_space.uncached_pin_refs;
  t

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

let rec write_all sock src ~total =
  if total <= 0 then Socket.close sock
  else
    Socket.write sock src (fun () ->
        write_all sock src ~total:(total - Region.length src))

let send_stream stack ~dst ~port ~proc ~wsize ~total ~seed =
  let paths = { Socket.default_paths with Socket.force_uio = true } in
  let pcb = ref None in
  pcb :=
    Some
      (Tcp.connect stack.Netstack.tcp ~dst ~dst_port:port
         ~on_established:(fun () ->
           let space = Netstack.make_space stack ~name:"tx" in
           let sock =
             Socket.create ~host:stack.Netstack.host ~space ~proc ~paths
               (Option.get !pcb)
           in
           let src = Addr_space.alloc space wsize in
           Region.fill_pattern src ~seed;
           write_all sock src ~total)
         ())

(* ---------- drain to baseline ---------- *)

(* A snapshot is a float array read in [occupancy_names] order; the
   names are only built when a leak is reported. *)
type occupancy = float array

let occupancy_names t =
  let node n =
    [
      "cab." ^ Cab.name n.cab ^ "/netmem_in_use";
      "tcp." ^ n.stack.Netstack.host.Host.name ^ "/active_flows";
    ]
  in
  [
    "sim/pending";
    "mbuf_pool/live";
    "mbuf_pool/live_clusters";
    "bufpool/outstanding";
    "addr_space/uncached_pin_refs";
  ]
  @ node t.a @ node t.b

(* [mbuf_pool/live] reads the live-mbuf count and [bufpool/outstanding]
   the shared pool's gets minus puts. *)
let occupancy t =
  let netmem n = float_of_int (Netmem.in_use (Cab.netmem n.cab)) in
  let flows n = float_of_int (Tcp.active_flows n.stack.Netstack.tcp) in
  [|
    float_of_int (Sim.pending t.sim);
    Obs.value ~section:"mbuf_pool" ~name:"live";
    Obs.value ~section:"mbuf_pool" ~name:"live_clusters";
    Obs.value ~section:"bufpool" ~name:"outstanding";
    float_of_int (sum_spaces t Addr_space.uncached_pin_refs);
    netmem t.a;
    flows t.a;
    netmem t.b;
    flows t.b;
  |]

let quiesce t ~slack =
  let run_slack () = Sim.run ~until:(Simtime.add (Sim.now t.sim) slack) t.sim in
  run_slack ();
  (* Poll both adaptors in case the last interrupt was swallowed; stop
     once a poll finds nothing (at most 16 rounds). *)
  let rec drain n =
    if n > 0 then begin
      let pending = Cab.poll t.a.cab + Cab.poll t.b.cab in
      run_slack ();
      if pending > 0 then drain (n - 1)
    end
  in
  drain 16;
  run_slack ()

type leak = { metric : string; baseline : float; final : float }

let leaks t baseline =
  let final = occupancy t in
  if final = baseline then []
  else
    List.filter_map Fun.id
      (List.mapi
         (fun i metric ->
           if final.(i) = baseline.(i) then None
           else Some { metric; baseline = baseline.(i); final = final.(i) })
         (occupancy_names t))

let string_of_leak l =
  Printf.sprintf "%s: baseline %.0f -> final %.0f" l.metric l.baseline l.final
