type t = { mutable ifc : Netif.t option }

let iface t = Option.get t.ifc

let attach ~host ~ip =
  let t = { ifc = None } in
  let ifc =
    Netif.make ~name:"lo0" ~addr:Inaddr.loopback ~mtu:(64 * 1024)
      ~output:(fun _ifc pkt ~next_hop:_ ->
        Interop.flatten_for_legacy ~host pkt (fun bytes ->
            ignore
              (Host.after host (Simtime.us 1.) (fun () ->
                   let chain = Mbuf.of_bytes ~pkthdr:true bytes in
                   match t.ifc with
                   | Some ifc -> Netif.deliver ifc chain
                   | None -> Mbuf.free chain))))
      ()
  in
  t.ifc <- Some ifc;
  Netif.attach_input ifc (fun m -> Ipv4.input ip ifc m);
  Host.add_iface host ifc;
  Routing.add_route (Ipv4.routing ip) ~prefix:(Inaddr.v 127 0 0 0) ~len:8 ifc;
  t
