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
  sim : Sim.t option;
  saved_output : Netif.t -> Mbuf.t -> next_hop:Inaddr.t -> unit;
  saved_input : Mbuf.t -> unit;
  mutable log : entry list;  (* newest first *)
  mutable n : int;
  mutable active : bool;
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
  if t.active then begin
    let e =
      {
        time = (match t.sim with Some s -> Sim.now s | None -> 0);
        dir;
        iface = t.ifc.Netif.name;
        len = Mbuf.pkt_len pkt;
        summary = summarize pkt;
      }
    in
    t.log <- e :: t.log;
    t.n <- t.n + 1
  end

let attach ?sim ifc =
  let t =
    {
      ifc;
      sim;
      saved_output = ifc.Netif.output;
      saved_input = ifc.Netif.input;
      log = [];
      n = 0;
      active = true;
    }
  in
  ifc.Netif.output <-
    (fun i pkt ~next_hop ->
      record t Tx pkt;
      t.saved_output i pkt ~next_hop);
  ifc.Netif.input <-
    (fun pkt ->
      record t Rx pkt;
      t.saved_input pkt);
  t

let detach t =
  t.active <- false;
  t.ifc.Netif.output <- t.saved_output;
  t.ifc.Netif.input <- t.saved_input

let entries t = List.rev t.log
let count t = t.n

let pp_entry fmt e =
  Format.fprintf fmt "[%a] %s %-5s %5dB  %s" Simtime.pp e.time e.iface
    (match e.dir with Tx -> "send" | Rx -> "recv")
    e.len e.summary

let dump ?limit fmt t =
  let es = entries t in
  let es =
    match limit with
    | Some n -> List.filteri (fun i _ -> i < n) es
    | None -> es
  in
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) es;
  match limit with
  | Some n when count t > n ->
      Format.fprintf fmt "... (%d more packets)@." (count t - n)
  | _ -> ()
