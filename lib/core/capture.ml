type dir = Tx | Rx

type entry = {
  time : Simtime.t;
  dir : dir;
  iface : string;
  len : int;
  summary : string;
}

type t = {
  ifc : Netif.t;
  sim : Sim.t;
  mutable log : entry list;  (* newest first *)
  mutable n : int;
}

let tcp_flags_string (h : Tcp_header.t) =
  let names =
    List.filter_map
      (fun (f, n) -> if Tcp_header.has f h then Some n else None)
      [
        (Tcp_header.SYN, "S");
        (Tcp_header.FIN, "F");
        (Tcp_header.RST, "R");
        (Tcp_header.PSH, "P");
        (Tcp_header.ACK, ".");
      ]
  in
  String.concat "" names

(* Decode up to the transport header from the (host-readable) front of an
   IP packet chain. *)
let summarize pkt =
  let len = Mbuf.pkt_len pkt in
  let head_len = min len 64 in
  let b = Bytes.create head_len in
  (try Mbuf.copy_into pkt ~off:0 ~len:head_len b ~dst_off:0
   with Mbuf.Outboard_data -> ());
  match Ipv4_header.decode b ~off:0 with
  | Error e -> Printf.sprintf "undecodable (%s)" e
  | Ok ip ->
      let l4 = Ipv4_header.size in
      let addr = Printf.sprintf "%s > %s" (Inaddr.to_string ip.Ipv4_header.src)
          (Inaddr.to_string ip.Ipv4_header.dst) in
      let frag =
        if ip.Ipv4_header.more_fragments || ip.Ipv4_header.frag_offset > 0
        then
          Printf.sprintf " frag(off=%d%s)"
            (ip.Ipv4_header.frag_offset * 8)
            (if ip.Ipv4_header.more_fragments then ",MF" else "")
        else ""
      in
      if ip.Ipv4_header.proto = Ipv4_header.proto_tcp && frag = "" then
        match Tcp_header.decode b ~off:l4 ~len:(head_len - l4) with
        | Ok h ->
            Printf.sprintf "IP %s TCP %d>%d [%s] seq=%d ack=%d win=%d len=%d"
              addr h.Tcp_header.src_port h.Tcp_header.dst_port
              (tcp_flags_string h) h.Tcp_header.seq h.Tcp_header.ack
              h.Tcp_header.window
              (ip.Ipv4_header.total_len - l4 - Tcp_header.size h)
        | Error _ -> Printf.sprintf "IP %s TCP (truncated)" addr
      else if ip.Ipv4_header.proto = Ipv4_header.proto_udp && frag = "" then
        match Udp_header.decode b ~off:l4 ~len:(head_len - l4) with
        | Ok (h, _) ->
            Printf.sprintf "IP %s UDP %d>%d len=%d" addr h.Udp_header.src_port
              h.Udp_header.dst_port h.Udp_header.length
        | Error _ -> Printf.sprintf "IP %s UDP (truncated)" addr
      else
        Printf.sprintf "IP %s proto=%d len=%d%s" addr ip.Ipv4_header.proto
          ip.Ipv4_header.total_len frag

let record t dir pkt =
  let e =
    {
      time = Sim.now t.sim;
      dir;
      iface = t.ifc.Netif.name;
      len = Mbuf.pkt_len pkt;
      summary = summarize pkt;
    }
  in
  t.log <- e :: t.log;
  t.n <- t.n + 1

let attach ~sim ifc =
  let t = { ifc; sim; log = []; n = 0 } in
  let output = ifc.Netif.output and input = ifc.Netif.input in
  ifc.Netif.output <-
    (fun i pkt ~next_hop ->
      record t Tx pkt;
      output i pkt ~next_hop);
  ifc.Netif.input <-
    (fun pkt ->
      record t Rx pkt;
      input pkt);
  t

let pp_entry fmt e =
  Format.fprintf fmt "[%a] %s %-5s %5dB  %s" Simtime.pp e.time e.iface
    (match e.dir with Tx -> "send" | Rx -> "recv")
    e.len e.summary

let dump ?limit fmt t =
  let es = List.rev t.log in
  let es =
    match limit with
    | Some n -> List.filteri (fun i _ -> i < n) es
    | None -> es
  in
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) es;
  match limit with
  | Some n when t.n > n ->
      Format.fprintf fmt "... (%d more packets)@." (t.n - n)
  | _ -> ()
