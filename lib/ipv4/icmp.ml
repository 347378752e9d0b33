type stats = {
  mutable echo_requests_rcvd : int;
  mutable echo_replies_sent : int;
  mutable echo_replies_rcvd : int;
  mutable time_exceeded_sent : int;
  mutable unreachable_sent : int;
  mutable errors_rcvd : int;
  mutable bad_checksums : int;
}

type t = {
  ip : Ipv4.t;
  host : Host.t;
  mutable pending : (int * int * Simtime.t * (seq:int -> rtt:Simtime.t -> unit)) list;
      (* (ident, seq, sent_at, callback) *)
  mutable next_seq : int;
  mutable on_error :
    (kind:[ `Unreachable | `Time_exceeded ] -> src:Inaddr.t -> unit) option;
  s : stats;
}

let type_echo_reply = 0
let type_unreachable = 3
let type_time_exceeded = 11
let type_echo_request = 8

let header_size = 8

let stats t = t.s
let on_error t f = t.on_error <- Some f

(* Build an ICMP message as a regular mbuf with a correct checksum (ICMP
   checksums cover the whole message, no pseudo-header). *)
let build ~typ ~code ~word ~payload =
  let n = header_size + Bytes.length payload in
  let b = Bytes.create n in
  Bytes.set_uint8 b 0 typ;
  Bytes.set_uint8 b 1 code;
  Bytes.set_uint16_be b 2 0;
  Bytes.set_int32_be b 4 (Int32.of_int word);
  Bytes.blit payload 0 b header_size (Bytes.length payload);
  let csum = Inet_csum.finish (Inet_csum.of_bytes b) in
  Bytes.set_uint16_be b 2 csum;
  Mbuf.of_bytes ~pkthdr:true b

let send t ~dst ~typ ~code ~word ~payload =
  let m = build ~typ ~code ~word ~payload in
  (* An in-kernel sender: per-packet protocol cost plus the (tiny) host
     checksum, charged to the kernel. *)
  let csum =
    Memcost.checksum_read t.host.Host.profile ~locality:Memcost.Cold
      (Mbuf.chain_len m)
  in
  let cost = Memcost.per_packet t.host.Host.profile + csum in
  Host.in_proc t.host ~proc:"kernel.icmp" ~site:Cpu.Header
    ~csum cost (fun () ->
      match Ipv4.output t.ip ~proto:Ipv4_header.proto_icmp ~dst m with
      | Ok _ -> ()
      | Error _ -> ())

let ping t ~dst ?(size = 56) ?(ident = 0x1234) ~on_reply () =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let payload = Bytes.create size in
  for i = 0 to size - 1 do
    Bytes.set_uint8 payload i (i land 0xff)
  done;
  t.pending <-
    (ident, seq, Sim.now t.host.Host.sim, on_reply) :: t.pending;
  send t ~dst ~typ:type_echo_request ~code:0
    ~word:((ident lsl 16) lor (seq land 0xffff))
    ~payload

(* Flatten an incoming message to host bytes.  Outboard tails (huge echo
   payloads through the CAB) are pulled in with a charged copy — the §5
   conversion for this in-kernel consumer. *)
let flatten t m k =
  let n = Mbuf.chain_len m in
  let has_outboard = List.mem Mbuf.K_wcab (Mbuf.chain_kinds m) in
  let b = Bytes.create n in
  Mbuf.copy_into_raw m ~off:0 ~len:n b ~dst_off:0;
  Mbuf.free m;
  if has_outboard then
    Host.in_proc t.host ~proc:"kernel.icmp" ~site:Cpu.Copy
      (Memcost.copy t.host.Host.profile ~locality:Memcost.Cold n)
      (fun () -> k b)
  else k b

let input t ~src ~dst:_ m =
  flatten t m (fun b ->
      if Bytes.length b < header_size then ()
      else if not (Inet_csum.is_valid (Inet_csum.of_bytes b)) then
        t.s.bad_checksums <- t.s.bad_checksums + 1
      else begin
        let typ = Bytes.get_uint8 b 0 in
        let word = Int32.to_int (Bytes.get_int32_be b 4) land 0xffffffff in
        if typ = type_echo_request then begin
          t.s.echo_requests_rcvd <- t.s.echo_requests_rcvd + 1;
          let payload =
            Bytes.sub b header_size (Bytes.length b - header_size)
          in
          t.s.echo_replies_sent <- t.s.echo_replies_sent + 1;
          send t ~dst:src ~typ:type_echo_reply ~code:0 ~word ~payload
        end
        else if typ = type_echo_reply then begin
          t.s.echo_replies_rcvd <- t.s.echo_replies_rcvd + 1;
          let ident = word lsr 16 and seq = word land 0xffff in
          let rec pick acc = function
            | [] -> (None, List.rev acc)
            | (i, s', t0, cb) :: rest when i = ident && s' land 0xffff = seq
              ->
                (Some (s', t0, cb), List.rev_append acc rest)
            | e :: rest -> pick (e :: acc) rest
          in
          let hit, rest = pick [] t.pending in
          t.pending <- rest;
          match hit with
          | Some (s', t0, cb) ->
              cb ~seq:s' ~rtt:(Simtime.sub (Sim.now t.host.Host.sim) t0)
          | None -> ()
        end
        else if typ = type_unreachable || typ = type_time_exceeded then begin
          t.s.errors_rcvd <- t.s.errors_rcvd + 1;
          match t.on_error with
          | Some f ->
              f
                ~kind:
                  (if typ = type_unreachable then `Unreachable
                   else `Time_exceeded)
                ~src
          | None -> ()
        end
      end)

let create ~ip =
  let t =
    {
      ip;
      host = Ipv4.host ip;
      pending = [];
      next_seq = 0;
      on_error = None;
      s =
        {
          echo_requests_rcvd = 0;
          echo_replies_sent = 0;
          echo_replies_rcvd = 0;
          time_exceeded_sent = 0;
          unreachable_sent = 0;
          errors_rcvd = 0;
          bad_checksums = 0;
        };
    }
  in
  Ipv4.register_protocol ip ~proto:Ipv4_header.proto_icmp
    (fun ~src ~dst m -> input t ~src ~dst m);
  Ipv4.set_error_hook ip (fun ~reason ~orig_src ~orig_head ->
      let typ =
        match reason with
        | `Ttl ->
            t.s.time_exceeded_sent <- t.s.time_exceeded_sent + 1;
            type_time_exceeded
        | `No_route ->
            t.s.unreachable_sent <- t.s.unreachable_sent + 1;
            type_unreachable
      in
      send t ~dst:orig_src ~typ ~code:0 ~word:0 ~payload:orig_head);
  t
