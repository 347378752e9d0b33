type dgram_stats = {
  mutable sent : int;
  mutable sent_uio : int;
  mutable sent_copy : int;
  mutable send_errors : int;
  mutable received : int;
  mutable rx_copyouts : int;
  mutable rx_kernel_copies : int;
  mutable pin_fallbacks : int;
  mutable truncated : int;
  mutable queue_drops : int;
}

type t = {
  host : Host.t;
  space : Addr_space.t;
  proc : string;
  paths : Socket.path_config;
  udp : Udp.t;
  ip : Ipv4.t;
  port : int;
  mutable rcvq : (Udp.endpoint * Mbuf.t) list;  (* oldest first *)
  mutable reader : (unit -> unit) option;
  mutable closed : bool;
  s : dgram_stats;
  copyout : Copyout_path.ctx;  (* receive delivery context *)
}

let stats t = t.s

(* Datagrams the receive queue holds; arrivals beyond are dropped. *)
let rcv_queue_max = 64

let charge t cost k = Host.in_proc t.host ~proc:t.proc cost k
let profile t = t.host.Host.profile

let create ~host ~space ~proc ?(paths = Socket.default_paths) ~udp ~ip
    ~port () =
  let s =
    {
      sent = 0;
      sent_uio = 0;
      sent_copy = 0;
      send_errors = 0;
      received = 0;
      rx_copyouts = 0;
      rx_kernel_copies = 0;
      pin_fallbacks = 0;
      truncated = 0;
      queue_drops = 0;
    }
  in
  let copyout =
    {
      Copyout_path.host;
      space;
      proc;
      cached = paths.Socket.use_pin_cache;
      note =
        (function
        | Copyout_path.Kernel_copy ->
            s.rx_kernel_copies <- s.rx_kernel_copies + 1
        | Copyout_path.Copyout -> s.rx_copyouts <- s.rx_copyouts + 1
        | Copyout_path.Pin_fallback -> s.pin_fallbacks <- s.pin_fallbacks + 1);
    }
  in
  let t =
    {
      host;
      space;
      proc;
      paths;
      udp;
      ip;
      port;
      rcvq = [];
      reader = None;
      closed = false;
      s;
      copyout;
    }
  in
  Udp.bind udp ~port (fun ~src dgram ->
      if t.closed || List.length t.rcvq >= rcv_queue_max then begin
        t.s.queue_drops <- t.s.queue_drops + 1;
        Mbuf.free dgram
      end
      else begin
        t.rcvq <- t.rcvq @ [ (src, dgram) ];
        match t.reader with
        | Some k ->
            t.reader <- None;
            k ()
        | None -> ()
      end);
  t

(* Path selection mirrors the stream socket (§4.4.3 + §4.5), with the
   extra fragmentation constraint: a fragmented datagram cannot use the
   engine, and descriptor fragments would be sliced at 8-byte (not
   4-byte) boundaries anyway — keep it simple and copy. *)
let send_path t region ~dst =
  let len = Region.length region in
  match Ipv4.route_for t.ip ~dst:dst.Udp.addr with
  | None -> `Copy
  | Some (ifc, _) ->
      let fits =
        Udp_header.size + len + Ipv4_header.size <= ifc.Netif.mtu
      in
      if
        ifc.Netif.single_copy && fits
        && (t.paths.Socket.force_uio
           || len >= Path_policy.static_cutover)
        && Region.is_word_aligned region
      then `Uio
      else `Copy

(* Single-copy send: the wired buffer goes out as an M_UIO descriptor,
   and the call completes when the DMA has made the kernel's copy. *)
let send_uio t region ~dst vm_cost k =
  t.s.sent_uio <- t.s.sent_uio + 1;
  let cached = t.paths.Socket.use_pin_cache in
  let len = Region.length region in
  let notify = Mbuf.make_notify () in
  Mbuf.notify_add notify len;
  charge t vm_cost (fun () ->
      let m = Mbuf.make_uio ~region ~notify:(Some notify) in
      let finish () = charge t (Addr_space.unwire t.space region ~cached) k in
      match Udp.sendto t.udp ~proc:t.proc ~src_port:t.port ~dst m with
      | Ok () ->
          if notify.Mbuf.dma_pending = 0 then finish ()
          else notify.Mbuf.on_drained <- finish
      | Error _ ->
          t.s.send_errors <- t.s.send_errors + 1;
          Mbuf.notify_complete_n notify notify.Mbuf.dma_pending;
          finish ())

let send_copy t region ~dst k =
  t.s.sent_copy <- t.s.sent_copy + 1;
  let len = Region.length region in
  let copy_cost = Memcost.copy (profile t) ~locality:Memcost.Cold len in
  charge t copy_cost (fun () ->
      Obs_ledger.touch Obs_ledger.Sock_tx_copy Obs_ledger.Copy len;
      (match
         Udp.sendto t.udp ~proc:t.proc ~src_port:t.port ~dst
           (Mbuf.of_region region ~off:0 ~len)
       with
      | Ok () -> ()
      | Error _ -> t.s.send_errors <- t.s.send_errors + 1);
      k ())

(* A send whose buffer the kernel will not wire degrades to the copying
   path, as a stream write does. *)
let sendto t region ~dst k =
  t.s.sent <- t.s.sent + 1;
  charge t (Memcost.syscall (profile t)) (fun () ->
      match send_path t region ~dst with
      | `Copy -> send_copy t region ~dst k
      | `Uio -> (
          match
            Addr_space.wire t.space region ~cached:t.paths.Socket.use_pin_cache
          with
          | Ok vm_cost -> send_uio t region ~dst vm_cost k
          | Error wasted ->
              t.s.pin_fallbacks <- t.s.pin_fallbacks + 1;
              charge t wasted (fun () -> send_copy t region ~dst k)))

(* Deliver one datagram chain into the user region, truncating like a
   real datagram socket.  Shares the stream socket's delivery mechanics —
   Obs_ledger data-touch accounting, pooled staging buffers, and try-pin
   degradation for copy-out destinations — through {!Copyout_path}. *)
let deliver t chain region k =
  let dlen = Mbuf.chain_len chain in
  let want = min dlen (Region.length region) in
  if dlen > Region.length region then
    t.s.truncated <- t.s.truncated + 1;
  let iface =
    Option.bind (Mbuf.rcvif chain) (fun name -> Host.find_iface t.host name)
  in
  Copyout_path.deliver_chain t.copyout ~iface chain region ~dst_off:0
    ~limit:want (fun () -> k want)

let rec recvfrom t region k =
  charge t (Memcost.syscall (profile t)) (fun () ->
      match t.rcvq with
      | (src, chain) :: rest ->
          t.rcvq <- rest;
          t.s.received <- t.s.received + 1;
          deliver t chain region (fun n -> k n src)
      | [] ->
          if not t.closed then
            t.reader <- Some (fun () -> recvfrom t region k))

let close t =
  t.closed <- true;
  Udp.unbind t.udp ~port:t.port;
  List.iter (fun (_, c) -> Mbuf.free c) t.rcvq;
  t.rcvq <- []
