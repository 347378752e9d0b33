(* The overload-robust connection plane: Listenq model-checked against
   an assoc-list/FIFO oracle, listener lifecycle (accept, overflow RST,
   close-time drain), lossy-handshake recovery through the SYN-ACK
   reaper, memory-pressure admission, idle-flow keepalive reaping,
   Sockpoll readiness, SYN-cookie promotion, and the per-host port
   table. *)

let sec name tests = (name, tests)
let case name f = Alcotest.test_case name `Quick f
let qcase t = QCheck_alcotest.to_alcotest t
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let conn_counter name = int_of_float (Obs.value ~section:"conn" ~name)

(* Every scenario below must return the testbed exactly to its
   occupancy snapshot, or it leaked. *)
let check_drained name tb base =
  Alcotest.(check (list string))
    (name ^ ": drained to baseline") []
    (List.map Testbed.string_of_leak (Testbed.leaks tb base))

let tcp_a tb = tb.Testbed.a.Testbed.stack.Netstack.tcp
let tcp_b tb = tb.Testbed.b.Testbed.stack.Netstack.tcp

(* --------------------------------------------------------------- *)
(* Listenq vs an assoc-list / FIFO oracle                           *)
(* --------------------------------------------------------------- *)

type qop = Syn_add of int | Syn_remove of int | Syn_find of int | Acc_push | Acc_pop

let qop_gen =
  QCheck.Gen.(
    let key = int_bound 7 in
    frequency
      [
        (5, map (fun k -> Syn_add k) key);
        (2, map (fun k -> Syn_remove k) key);
        (3, map (fun k -> Syn_find k) key);
        (5, return Acc_push);
        (4, return Acc_pop);
      ])

let qop_print = function
  | Syn_add k -> Printf.sprintf "Syn_add %d" k
  | Syn_remove k -> Printf.sprintf "Syn_remove %d" k
  | Syn_find k -> Printf.sprintf "Syn_find %d" k
  | Acc_push -> "Acc_push"
  | Acc_pop -> "Acc_pop"

let syn_bound = 4
let acc_bound = 3

let listenq_model =
  QCheck.Test.make ~count:800 ~name:"listenq agrees with assoc/FIFO model"
    QCheck.(
      make
        ~print:Print.(list qop_print)
        Gen.(list_size (int_bound 150) qop_gen))
    (fun ops ->
      let q = Listenq.create ~syn_backlog:syn_bound ~backlog:acc_bound in
      (* Oracle: assoc list for the SYN table, head-first list for the
         accept FIFO; a running counter gives every insert a distinct
         value so replacement and ordering bugs are visible. *)
      let syn = ref [] and acc = ref [] and next = ref 0 in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Syn_add k ->
                incr next;
                let v = !next in
                let admitted = Listenq.syn_add q k v in
                let want =
                  List.mem_assoc k !syn || List.length !syn < syn_bound
                in
                if want then syn := (k, v) :: List.remove_assoc k !syn;
                admitted = want
            | Syn_remove k ->
                Listenq.syn_remove q k;
                syn := List.remove_assoc k !syn;
                true
            | Syn_find k -> Listenq.syn_find q k = List.assoc_opt k !syn
            | Acc_push ->
                incr next;
                let v = !next in
                let admitted = Listenq.acc_push q v in
                let want = List.length !acc < acc_bound in
                if want then acc := !acc @ [ v ];
                admitted = want
            | Acc_pop -> (
                match (Listenq.acc_pop q, !acc) with
                | Some v, x :: rest ->
                    acc := rest;
                    v = x
                | None, [] -> true
                | _ -> false)
          in
          step_ok
          && Listenq.syn_count q = List.length !syn
          && Listenq.acc_count q = List.length !acc
          && Listenq.syn_full q = (List.length !syn >= syn_bound)
          && Listenq.acc_full q = (List.length !acc >= acc_bound))
        ops)

let listenq_drain_and_bounds () =
  (try
     ignore (Listenq.create ~syn_backlog:0 ~backlog:1 : (int, int) Listenq.t);
     Alcotest.fail "syn_backlog 0 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Listenq.create ~syn_backlog:1 ~backlog:(-3) : (int, int) Listenq.t);
     Alcotest.fail "negative backlog accepted"
   with Invalid_argument _ -> ());
  let q = Listenq.create ~syn_backlog:8 ~backlog:4 in
  for k = 0 to 5 do
    check_bool "syn admitted" true (Listenq.syn_add q k (100 + k))
  done;
  for v = 0 to 2 do
    check_bool "acc admitted" true (Listenq.acc_push q v)
  done;
  let syn_seen = ref [] and acc_seen = ref [] in
  Listenq.syn_drain (fun v -> syn_seen := v :: !syn_seen) q;
  Listenq.acc_drain (fun v -> acc_seen := v :: !acc_seen) q;
  check_int "syn_drain visits every entry" 6 (List.length !syn_seen);
  check_int "acc_drain visits every entry" 3 (List.length !acc_seen);
  check_int "syn table empty after drain" 0 (Listenq.syn_count q);
  check_int "accept queue empty after drain" 0 (Listenq.acc_count q)

(* --------------------------------------------------------------- *)
(* Accept queue: handshake -> pending -> accept                     *)
(* --------------------------------------------------------------- *)

let accept_basic () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let l = Tcp.create_listener (tcp_b tb) ~port:7000 () in
  let pcb_a = Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 () in
  Sim.run ~until:(Simtime.ms 100.) tb.Testbed.sim;
  check_int "one connection pending" 1 (Tcp.listener_pending l);
  check_int "no half-open residue" 0 (Tcp.listener_half_open l);
  check_bool "client established" true (Tcp.state pcb_a = Tcp.Established);
  let pcb_b =
    match Tcp.accept l with
    | Some p -> p
    | None -> Alcotest.fail "accept returned nothing"
  in
  check_bool "accepted pcb established" true (Tcp.state pcb_b = Tcp.Established);
  check_bool "accept queue now empty" true (Tcp.accept l = None);
  check_int "pending drops after accept" 0 (Tcp.listener_pending l);
  Tcp.close pcb_a;
  Tcp.close pcb_b;
  Tcp.close_listener l;
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "accept" tb base

let accept_overflow_rst () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let overflow0 = conn_counter "accept_overflow" in
  let l =
    Tcp.create_listener (tcp_b tb) ~port:7000 ~backlog:2 ~rst_on_full:true ()
  in
  let clients =
    List.init 4 (fun _ ->
        Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 ())
  in
  Sim.run ~until:(Simtime.ms 300.) tb.Testbed.sim;
  check_int "backlog bounds the queue" 2 (Tcp.listener_pending l);
  check_int "overflowed handshakes counted" 2
    (conn_counter "accept_overflow" - overflow0);
  let established, reset =
    List.partition (fun p -> Tcp.state p = Tcp.Established) clients
  in
  check_int "two clients made it" 2 (List.length established);
  check_int "two clients were RST" 2 (List.length reset);
  List.iter
    (fun p -> check_bool "rejected client closed" true (Tcp.state p = Tcp.Closed))
    reset;
  let rec drain_accepts () =
    match Tcp.accept l with
    | Some p ->
        Tcp.close p;
        drain_accepts ()
    | None -> ()
  in
  drain_accepts ();
  List.iter Tcp.close established;
  Tcp.close_listener l;
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "overflow" tb base

(* --------------------------------------------------------------- *)
(* The drain check names what leaked                                *)
(* --------------------------------------------------------------- *)

let drain_check_names_leaks () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let m = Mbuf.alloc ~pkthdr:true 64 in
  let timer = Sim.after tb.Testbed.sim (Simtime.s 1.) ignore in
  Alcotest.(check (list string))
    "an unreleased mbuf and an armed timer are named"
    [ "sim/pending"; "mbuf_pool/live" ]
    (List.map (fun l -> l.Testbed.metric) (Testbed.leaks tb base));
  Mbuf.free m;
  Sim.stop tb.Testbed.sim timer;
  check_drained "released" tb base

(* Pins: a buffer an address space's cache keeps wired is working, not
   leaking, so the check never flushes a cache; a pin held outside the
   caches is a leak until it is released, and a stream whose sockets
   wire each buffer for one transfer only releases every pin it took. *)
let drain_counts_pins_outside_caches () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"pins" in
  let wire r ~cached =
    match Addr_space.wire space r ~cached with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "pin refused with faults disarmed"
  in
  let kept = Addr_space.alloc space 8192 and once = Addr_space.alloc space 8192 in
  wire kept ~cached:true;
  wire once ~cached:false;
  Alcotest.(check (list string))
    "only the pin outside the cache is named"
    [ "addr_space/uncached_pin_refs" ]
    (List.map (fun l -> l.Testbed.metric) (Testbed.leaks tb base));
  ignore (Addr_space.unwire space once ~cached:false : Simtime.t);
  ignore (Addr_space.unwire space kept ~cached:true : Simtime.t);
  check_drained "cache keeps its buffer" tb base;
  let paths =
    { Socket.default_paths with Socket.force_uio = true; use_pin_cache = false }
  in
  let total = 1 lsl 18 and got = ref 0 in
  Testbed.establish_stream tb ~port:7000 ~a_paths:paths ~b_paths:paths
    (fun sa sb ->
      let src = Addr_space.alloc (Socket.space sa) 65536 in
      Testbed.write_all sa src ~total;
      let dst = Addr_space.alloc (Socket.space sb) 65536 in
      let rec recv () =
        Socket.read sb dst (fun n ->
            if n = 0 then Socket.close sb
            else begin
              got := !got + n;
              recv ()
            end)
      in
      recv ());
  Sim.run ~until:(Simtime.s 5.) tb.Testbed.sim;
  check_int "stream delivered" total !got;
  check_drained "uncached stream" tb base

(* Pins are counted in the address spaces that hold them: the pins a
   finished testbed leaves behind (a cache keeps its buffers wired) are
   not the next testbed's, in the registry or in its drain check. *)
let pins_stay_with_their_testbed () =
  let gauge name = Obs.value ~section:"addr_space" ~name in
  let first = Testbed.create () in
  let space = Netstack.make_space first.Testbed.a.Testbed.stack ~name:"old" in
  let wire ~cached =
    let r = Addr_space.alloc space 8192 in
    (match Addr_space.wire space r ~cached with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "pin refused with faults disarmed");
    r
  in
  ignore (wire ~cached:true : Region.t);
  let once = wire ~cached:false in
  let pages = Addr_space.pinned_pages space in
  check_bool "the first testbed pins pages" true (pages > 0);
  Alcotest.(check (float 0.))
    "the first testbed counts its own pins" (float_of_int pages)
    (gauge "pinned_pages");
  let second = Testbed.create () in
  let base = Testbed.occupancy second in
  Alcotest.(check (float 0.)) "no pinned page" 0. (gauge "pinned_pages");
  Alcotest.(check (float 0.)) "no uncached pin" 0. (gauge "uncached_pin_refs");
  ignore (Addr_space.unwire space once ~cached:false : Simtime.t);
  check_drained "the first testbed's unpin" second base

(* --------------------------------------------------------------- *)
(* Listener close drains to exact occupancy                         *)
(* --------------------------------------------------------------- *)

let close_drains_accept_queue () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let drained0 = conn_counter "listen_drained" in
  let l = Tcp.create_listener (tcp_b tb) ~port:7000 ~backlog:16 () in
  let clients =
    List.init 3 (fun _ ->
        Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 ())
  in
  Sim.run ~until:(Simtime.ms 300.) tb.Testbed.sim;
  check_int "three queued, nobody accepting" 3 (Tcp.listener_pending l);
  Tcp.close_listener l;
  check_int "close empties the accept queue" 0 (Tcp.listener_pending l);
  check_int "every queued connection drained" 3
    (conn_counter "listen_drained" - drained0);
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  List.iter
    (fun p ->
      check_bool "queued peer reset by the drain" true (Tcp.state p = Tcp.Closed))
    clients;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "close drain" tb base

let close_drains_half_open () =
  (* Drop the client's handshake ACK (its frame 1; frame 0 is the SYN)
     so the server still holds a half-open record, then close the
     listener out from under it. *)
  let tb = Testbed.create ~drop_a_frames:[ 1 ] () in
  let base = Testbed.occupancy tb in
  let drained0 = conn_counter "listen_drained" in
  let l = Tcp.create_listener (tcp_b tb) ~port:7000 () in
  let pcb_a = Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 () in
  Sim.run ~until:(Simtime.ms 50.) tb.Testbed.sim;
  check_int "half-open held while the ACK is lost" 1 (Tcp.listener_half_open l);
  check_bool "half_open_info sees the tuple" true
    (Tcp.half_open_info l ~raddr:Testbed.addr_a ~rport:(Tcp.local_port pcb_a)
    <> None);
  Tcp.close_listener l;
  check_int "close frees the half-open record" 0 (Tcp.listener_half_open l);
  check_int "drain counted it" 1 (conn_counter "listen_drained" - drained0);
  check_bool "half_open_info empty after close" true
    (Tcp.half_open_info l ~raddr:Testbed.addr_a ~rport:(Tcp.local_port pcb_a)
    = None);
  (* The client completed its side of the handshake before the loss; the
     server kept no state for it, so only an abort tears it down. *)
  Tcp.abort pcb_a;
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "half-open drain" tb base

(* --------------------------------------------------------------- *)
(* Lossy handshake: the SYN-ACK reaper completes it                 *)
(* --------------------------------------------------------------- *)

let synack_rexmit_completes () =
  let tb = Testbed.create ~drop_a_frames:[ 1 ] () in
  let base = Testbed.occupancy tb in
  let rexmits0 = conn_counter "synack_rexmits" in
  let l = Tcp.create_listener (tcp_b tb) ~port:7000 () in
  let pcb_a = Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 () in
  Sim.run ~until:(Simtime.ms 50.) tb.Testbed.sim;
  (match
     Tcp.half_open_info l ~raddr:Testbed.addr_a ~rport:(Tcp.local_port pcb_a)
   with
  | Some (_, rexmits) -> check_int "no retransmit yet" 0 rexmits
  | None -> Alcotest.fail "half-open record missing after lost ACK");
  (* rto_init is 200 ms: the reaper retransmits the SYN-ACK, the
     (already established) client ACKs again, and the handshake
     completes without the client ever noticing the loss. *)
  Sim.run ~until:(Simtime.s 3.) tb.Testbed.sim;
  check_bool "reaper retransmitted the SYN-ACK" true
    (conn_counter "synack_rexmits" - rexmits0 >= 1);
  check_int "promotion completed" 1 (Tcp.listener_pending l);
  check_int "half-open slot released" 0 (Tcp.listener_half_open l);
  let pcb_b =
    match Tcp.accept l with
    | Some p -> p
    | None -> Alcotest.fail "nothing to accept after recovery"
  in
  check_bool "server side established" true (Tcp.state pcb_b = Tcp.Established);
  Tcp.close pcb_a;
  Tcp.close pcb_b;
  Tcp.close_listener l;
  Sim.run ~until:(Simtime.s 5.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "synack rexmit" tb base

(* A cookie keeps no SYN timestamp, so a cookie-validated connection
   must not observe a (fake zero) setup latency.  Both hosts share the
   histogram: every client's active open adds one sample, and so does
   every server-side stateful handshake. *)
let cookie_adds_no_setup_sample () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let setup () = Obs.Histogram.count Obs_lat.conn_setup_ns in
  let l =
    Tcp.create_listener (tcp_b tb) ~port:7000 ~syn_backlog:1 ~cookies:true ()
  in
  let run_clients n =
    let s0 = setup () in
    let clients =
      List.init n (fun _ ->
          Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 ())
    in
    Sim.run ~until:(Sim.now tb.Testbed.sim + Simtime.ms 300.) tb.Testbed.sim;
    List.iter
      (fun p -> check_bool "client established" true (Tcp.state p = Tcp.Established))
      clients;
    (clients, setup () - s0)
  in
  (* One client: a stateful handshake, sampled on both ends. *)
  let c1, samples = run_clients 1 in
  check_int "stateful handshake: client + server samples" 2 samples;
  (* Two at once: the first takes the only SYN slot, the second is
     answered with a cookie and promoted when its ACK validates. *)
  let sent0 = conn_counter "cookies_sent"
  and valid0 = conn_counter "cookies_validated" in
  let c2, samples = run_clients 2 in
  check_int "one cookie sent" 1 (conn_counter "cookies_sent" - sent0);
  check_int "one cookie validated" 1
    (conn_counter "cookies_validated" - valid0);
  check_int "cookie promotion adds no server sample" 3 samples;
  let rec accept_all acc =
    match Tcp.accept l with Some p -> accept_all (p :: acc) | None -> acc
  in
  let servers = accept_all [] in
  check_int "all three accepted" 3 (List.length servers);
  List.iter Tcp.close (c1 @ c2 @ servers);
  Tcp.close_listener l;
  Sim.run ~until:(Sim.now tb.Testbed.sim + Simtime.s 2.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "cookie" tb base

(* The client's handshake ACK is lost on a cookie connection, so the
   client is established and the server holds nothing.  The client's
   RST then carries a valid cookie in its ack field: it must not promote
   a connection no one will ever use. *)
let cookie_rst_promotes_nothing () =
  (* Frames 0 and 1 are the two SYNs, 2 and 3 the two handshake ACKs:
     drop the second (cookie) client's. *)
  let tb = Testbed.create ~drop_a_frames:[ 3 ] () in
  let base = Testbed.occupancy tb in
  let l =
    Tcp.create_listener (tcp_b tb) ~port:7000 ~syn_backlog:1 ~cookies:true ()
  in
  let sent0 = conn_counter "cookies_sent" in
  let c1 = Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 () in
  let c2 = Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 () in
  Sim.run ~until:(Sim.now tb.Testbed.sim + Simtime.ms 50.) tb.Testbed.sim;
  check_int "second client answered with a cookie" 1
    (conn_counter "cookies_sent" - sent0);
  check_bool "cookie client established" true (Tcp.state c2 = Tcp.Established);
  check_int "only the stateful handshake promoted" 1 (Tcp.listener_pending l);
  let promoted0 = conn_counter "promoted" in
  Tcp.abort c2;
  Sim.run ~until:(Sim.now tb.Testbed.sim + Simtime.ms 50.) tb.Testbed.sim;
  check_int "the RST promotes nothing" 0 (conn_counter "promoted" - promoted0);
  check_int "accept queue still holds one" 1 (Tcp.listener_pending l);
  (match Tcp.accept l with Some s -> Tcp.close s | None -> ());
  Tcp.close c1;
  Tcp.close_listener l;
  Sim.run ~until:(Sim.now tb.Testbed.sim + Simtime.s 2.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "cookie rst" tb base

(* A hand-built segment from A to B's port 7000, for admission outcomes
   a well-behaved client never produces.  A holds no state for [sport],
   so whatever B answers is dropped there. *)
let send_raw tb ~sport ~flags ~seq ~ack =
  let options =
    if List.mem Tcp_header.SYN flags then [ Tcp_header.Mss 1460 ] else []
  in
  let hdr =
    Tcp_header.make ~flags ~window:65535 ~options ~src_port:sport
      ~dst_port:7000 ~seq ~ack ()
  in
  let len = Tcp_header.size hdr in
  let b = Bytes.create len in
  Tcp_header.encode hdr ~csum:0 b ~off:0;
  let pseudo =
    Inet_csum.pseudo_header ~src:Testbed.addr_a ~dst:Testbed.addr_b
      ~proto:Ipv4_header.proto_tcp ~len
  in
  Tcp_header.encode hdr
    ~csum:(Inet_csum.finish (Inet_csum.add pseudo (Inet_csum.of_bytes b)))
    b ~off:0;
  ignore
    (Ipv4.output tb.Testbed.a.Testbed.stack.Netstack.ip
       ~proto:Ipv4_header.proto_tcp ~dst:Testbed.addr_b
       (Mbuf.of_bytes ~pkthdr:true ~len b)
      : (Netif.t, string) result);
  Sim.run ~until:(Sim.now tb.Testbed.sim + Simtime.ms 10.) tb.Testbed.sim

let b_ip_sent tb = (Ipv4.stats tb.Testbed.b.Testbed.stack.Netstack.ip).Ipv4.sent

(* A retransmitted SYN finds its half-open: the listener answers from
   that record (same ISS, a second SYN-ACK) instead of queueing again. *)
let duplicate_syn_answered () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let l = Tcp.create_listener (tcp_b tb) ~port:7000 () in
  let queued0 = conn_counter "syn_queued" and dup0 = conn_counter "syn_dup" in
  let syn () =
    send_raw tb ~sport:4000 ~flags:[ Tcp_header.SYN ] ~seq:1000 ~ack:0
  in
  let half_open () = Tcp.half_open_info l ~raddr:Testbed.addr_a ~rport:4000 in
  syn ();
  let first = half_open () and sent0 = b_ip_sent tb in
  syn ();
  check_int "queued once" 1 (conn_counter "syn_queued" - queued0);
  check_int "second SYN counted as a duplicate" 1
    (conn_counter "syn_dup" - dup0);
  check_int "one half-open" 1 (Tcp.listener_half_open l);
  check_bool "answered from the same record" true
    (first <> None && half_open () = first);
  check_int "a second SYN-ACK sent" 1 (b_ip_sent tb - sent0);
  Tcp.close_listener l;
  Sim.run ~until:(Sim.now tb.Testbed.sim + Simtime.s 1.) tb.Testbed.sim;
  check_drained "duplicate SYN" tb base

(* Once cookies are outstanding, an ACK matching no half-open is checked
   as a cookie; a forged one is refused without promoting anything. *)
let bad_cookie_refused () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let l =
    Tcp.create_listener (tcp_b tb) ~port:7000 ~syn_backlog:1 ~cookies:true ()
  in
  let sent0 = conn_counter "cookies_sent"
  and rejected0 = conn_counter "cookies_rejected"
  and promoted0 = conn_counter "promoted" in
  send_raw tb ~sport:4000 ~flags:[ Tcp_header.SYN ] ~seq:1000 ~ack:0;
  send_raw tb ~sport:4001 ~flags:[ Tcp_header.SYN ] ~seq:5000 ~ack:0;
  check_int "the full SYN queue answered with a cookie" 1
    (conn_counter "cookies_sent" - sent0);
  send_raw tb ~sport:4001 ~flags:[ Tcp_header.ACK ] ~seq:5001 ~ack:12345;
  check_int "bad cookie refused" 1
    (conn_counter "cookies_rejected" - rejected0);
  check_int "nothing promoted" 0 (conn_counter "promoted" - promoted0);
  check_int "nothing to accept" 0 (Tcp.listener_pending l);
  Tcp.close_listener l;
  Sim.run ~until:(Sim.now tb.Testbed.sim + Simtime.s 1.) tb.Testbed.sim;
  check_drained "bad cookie" tb base

(* --------------------------------------------------------------- *)
(* Memory-pressure admission                                        *)
(* --------------------------------------------------------------- *)

let pressure_sheds_then_recovers () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let shed0 = conn_counter "shed_pressure" in
  let pressure = ref 1.0 in
  Tcp.set_pressure_fn (tcp_b tb) (fun () -> !pressure);
  let l = Tcp.create_listener (tcp_b tb) ~port:7000 () in
  let pcb_a = Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 () in
  Sim.run ~until:(Simtime.ms 100.) tb.Testbed.sim;
  check_bool "SYN shed under pressure" true
    (conn_counter "shed_pressure" - shed0 >= 1);
  check_int "no half-open admitted" 0 (Tcp.listener_half_open l);
  check_int "nothing promoted" 0 (Tcp.listener_pending l);
  check_bool "client still retrying" true (Tcp.state pcb_a = Tcp.Syn_sent);
  (* Pressure lifts; the client's own SYN retransmit gets in. *)
  pressure := 0.0;
  Sim.run ~until:(Simtime.s 3.) tb.Testbed.sim;
  check_int "admitted once pressure lifted" 1 (Tcp.listener_pending l);
  check_bool "client established" true (Tcp.state pcb_a = Tcp.Established);
  (match Tcp.accept l with
  | Some p -> Tcp.close p
  | None -> Alcotest.fail "accept after pressure lift");
  Tcp.close pcb_a;
  Tcp.close_listener l;
  Sim.run ~until:(Simtime.s 5.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "pressure" tb base

(* --------------------------------------------------------------- *)
(* Keepalive: idle-flow reaping                                     *)
(* --------------------------------------------------------------- *)

let keepalive_cfg c =
  {
    c with
    Tcp.keepalive_idle = Simtime.ms 100.;
    Tcp.keepalive_intvl = Simtime.ms 100.;
    Tcp.keepalive_probes = 4;
  }

let keepalive_healthy_survives () =
  let tb = Testbed.create ~tcp_config:keepalive_cfg () in
  let base = Testbed.occupancy tb in
  let probes0 = conn_counter "keepalive_probes" in
  let drops0 = conn_counter "keepalive_drops" in
  let b_side = ref None in
  Tcp.listen (tcp_b tb) ~port:7000 ~on_accept:(fun p -> b_side := Some p);
  let pcb_a = Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 () in
  Sim.run ~until:(Simtime.s 1.) tb.Testbed.sim;
  let pcb_b =
    match !b_side with Some p -> p | None -> Alcotest.fail "never accepted"
  in
  (* A full second of silence is ~9 idle periods: probes flowed and
     every one was answered, so both ends are still up. *)
  check_bool "probes were sent" true
    (conn_counter "keepalive_probes" - probes0 >= 4);
  check_int "no flow reaped" 0 (conn_counter "keepalive_drops" - drops0);
  check_bool "client alive" true (Tcp.state pcb_a = Tcp.Established);
  check_bool "server alive" true (Tcp.state pcb_b = Tcp.Established);
  Tcp.close pcb_a;
  Tcp.close pcb_b;
  Tcp.unlisten (tcp_b tb) ~port:7000;
  Sim.run ~until:(Simtime.s 3.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "keepalive healthy" tb base

let keepalive_reaps_dead_peer () =
  (* After the SYN-ACK (B's frame 0) every frame B sends is lost: its
     probe answers never arrive, so the client's probes exhaust and the
     flow is reaped; the reaper's RST does get through and clears the
     server side too. *)
  let tb =
    Testbed.create ~tcp_config:keepalive_cfg
      ~drop_b_frames:(List.init 400 (fun i -> i + 1))
      ()
  in
  let base = Testbed.occupancy tb in
  let probes0 = conn_counter "keepalive_probes" in
  let drops0 = conn_counter "keepalive_drops" in
  let b_side = ref None in
  Tcp.listen (tcp_b tb) ~port:7000 ~on_accept:(fun p -> b_side := Some p);
  let pcb_a = Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 () in
  Sim.run ~until:(Simtime.s 3.) tb.Testbed.sim;
  check_bool "accepted before the peer went dark" true (!b_side <> None);
  check_bool "probes were sent" true
    (conn_counter "keepalive_probes" - probes0 >= 4);
  check_bool "unanswered probes reaped the flow" true
    (conn_counter "keepalive_drops" - drops0 >= 1);
  check_bool "client side closed" true (Tcp.state pcb_a = Tcp.Closed);
  (match !b_side with
  | Some p -> check_bool "server side closed" true (Tcp.state p = Tcp.Closed)
  | None -> ());
  Tcp.unlisten (tcp_b tb) ~port:7000;
  Sim.run ~until:(Simtime.s 4.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "keepalive reap" tb base

(* --------------------------------------------------------------- *)
(* Sockpoll readiness                                               *)
(* --------------------------------------------------------------- *)

let find_ev evs data = List.find_opt (fun e -> e.Sockpoll.ev_data = data) evs

let sockpoll_accept_and_read () =
  let tb = Testbed.create () in
  let base = Testbed.occupancy tb in
  let sp = Sockpoll.create () in
  let l = Tcp.create_listener (tcp_b tb) ~port:7000 () in
  let e_l = Sockpoll.add_listener sp ~data:1 l in
  check_bool "idle listener not ready" true (Sockpoll.poll sp = []);
  let pcb_a = Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 () in
  Sim.run ~until:(Simtime.ms 100.) tb.Testbed.sim;
  (match find_ev (Sockpoll.poll sp) 1 with
  | Some ev -> check_bool "acceptable edge delivered" true ev.Sockpoll.ev_acceptable
  | None -> Alcotest.fail "listener never became acceptable");
  let pcb_b =
    match Tcp.accept l with
    | Some p -> p
    | None -> Alcotest.fail "poll said acceptable but accept was empty"
  in
  let space = Addr_space.create ~profile:Host_profile.alpha400 ~name:"srv" () in
  let sock_b =
    Socket.create ~host:tb.Testbed.b.Testbed.stack.Netstack.host ~space
      ~proc:"srv" pcb_b
  in
  let e_s = Sockpoll.add_socket sp ~data:2 sock_b in
  let evs = Sockpoll.poll sp in
  check_bool "drained listener not re-reported" true (find_ev evs 1 = None);
  (match find_ev evs 2 with
  | Some ev ->
      check_bool "fresh socket writable" true ev.Sockpoll.ev_writable;
      check_bool "fresh socket not readable" false ev.Sockpoll.ev_readable
  | None -> Alcotest.fail "freshly added ready socket not reported");
  (* Client sends 1 KByte; the poller must flag the server socket. *)
  (match
     Tcp.sosend_append pcb_a ~proc:"cli" (Mbuf.alloc ~pkthdr:true 1024)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("client send failed: " ^ e));
  Sim.run ~until:(Simtime.ms 200.) tb.Testbed.sim;
  (match find_ev (Sockpoll.poll sp) 2 with
  | Some ev -> check_bool "data made the socket readable" true ev.Sockpoll.ev_readable
  | None -> Alcotest.fail "readable edge never delivered");
  let got = ref 0 in
  Socket.read sock_b (Addr_space.alloc space 2048) (fun n -> got := n);
  Sim.run ~until:(Simtime.ms 300.) tb.Testbed.sim;
  check_int "read returned the payload" 1024 !got;
  Sockpoll.remove sp e_s;
  Sockpoll.remove sp e_l;
  check_bool "removed entries are never reported" true (Sockpoll.poll sp = []);
  Socket.close sock_b;
  Tcp.close pcb_a;
  Tcp.close_listener l;
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  (* The socket's address space still caches the read buffer's pinned
     page after the close: a cache that holds pins is working, not
     leaking, and the drain check does not count it. *)
  check_drained "sockpoll" tb base

(* --------------------------------------------------------------- *)
(* Port table                                                       *)
(* --------------------------------------------------------------- *)

(* One listener table per host: every shard reads it, so after a
   rebind connections landing on any shard are admitted. *)
let port_table_lifecycle_on ~shards =
  let tb = Testbed.create ~shards () in
  let base = Testbed.occupancy tb in
  let tcp = tcp_b tb in
  let l = Tcp.create_listener tcp ~port:7000 () in
  (try
     ignore (Tcp.create_listener tcp ~port:7000 () : Tcp.listener);
     Alcotest.fail "double listen accepted"
   with Invalid_argument _ -> ());
  (try
     Tcp.listen tcp ~port:7000 ~on_accept:ignore;
     Alcotest.fail "legacy listen on a bound port accepted"
   with Invalid_argument _ -> ());
  Tcp.close_listener l;
  (* Close releases the port for immediate rebinding... *)
  ignore (Tcp.create_listener tcp ~port:7000 () : Tcp.listener);
  (* ...and unlisten is close-by-port-number. *)
  Tcp.unlisten tcp ~port:7000;
  let l3 = Tcp.create_listener tcp ~port:7000 () in
  let clients =
    List.init 8 (fun _ ->
        Tcp.connect (tcp_a tb) ~dst:Testbed.addr_b ~dst_port:7000 ())
  in
  Sim.run ~until:(Simtime.ms 300.) tb.Testbed.sim;
  let rec accept_all acc =
    match Tcp.accept l3 with Some p -> accept_all (p :: acc) | None -> acc
  in
  let accepted = accept_all [] in
  check_int "every connection accepted after the rebind" 8
    (List.length accepted);
  let used = List.sort_uniq compare (List.map Tcp.pcb_shard accepted) in
  check_bool "connections spread over the shards" true
    (shards = 1 || List.length used > 1);
  List.iter Tcp.close clients;
  List.iter Tcp.close accepted;
  Tcp.close_listener l3;
  (* Closing twice and unlistening a free port are no-ops. *)
  Tcp.close_listener l3;
  Tcp.unlisten tcp ~port:9999;
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_int "A flows drained" 0 (Tcp.active_flows (tcp_a tb));
  check_int "B flows drained" 0 (Tcp.active_flows (tcp_b tb));
  check_drained "ports" tb base

let port_table_lifecycle () =
  port_table_lifecycle_on ~shards:1;
  port_table_lifecycle_on ~shards:4

(* Retained words per established flow: live words after [Gc.full_major]
   across 200 [Testbed.establish_stream] pairs at [default_paths], both
   ends (pcbs, sockets, their address spaces and timers), with every
   listener closed once its pair is up.  Twenty pairs opened first grow
   the pools and tables, so the figure is what one more flow keeps.  It
   is deterministic for a given binary, and the ceiling is this build's
   reading. *)
let max_words_per_flow = 860

let retained_words_per_flow () =
  let tb = Testbed.create () in
  let pairs = ref [] in
  let open_pairs ~first n =
    for port = first to first + n - 1 do
      Testbed.establish_stream tb ~port (fun sa sb ->
          pairs := (sa, sb) :: !pairs)
    done;
    Sim.run
      ~until:(Simtime.add (Sim.now tb.Testbed.sim) (Simtime.ms 200.))
      tb.Testbed.sim;
    for port = first to first + n - 1 do
      Tcp.unlisten (tcp_b tb) ~port
    done
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  open_pairs ~first:7000 20;
  let w0 = live () in
  open_pairs ~first:8000 200;
  let w1 = live () in
  check_int "every pair established" 220 (List.length !pairs);
  let per_flow = float_of_int (w1 - w0) /. 200. in
  Printf.printf "retained words per established flow: %.1f\n" per_flow;
  check_bool
    (Printf.sprintf "%.1f retained words per flow (ceiling %d)" per_flow
       max_words_per_flow)
    true
    (per_flow <= float_of_int max_words_per_flow)

let () =
  Alcotest.run "conn"
    [
      sec "listenq" [ qcase listenq_model; case "drain and bounds" listenq_drain_and_bounds ];
      sec "accept"
        [
          case "handshake to accept" accept_basic;
          case "overflow answered with RST" accept_overflow_rst;
        ];
      sec "drain"
        [
          case "leak diff names the metric" drain_check_names_leaks;
          case "pins count outside the caches" drain_counts_pins_outside_caches;
          case "pins stay with their testbed" pins_stay_with_their_testbed;
          case "close drains the accept queue" close_drains_accept_queue;
          case "close drains half-open records" close_drains_half_open;
        ];
      sec "handshake"
        [
          case "SYN-ACK reaper recovers a lost ACK" synack_rexmit_completes;
          case "cookie promotion adds no setup sample"
            cookie_adds_no_setup_sample;
          case "RST with a valid cookie promotes nothing"
            cookie_rst_promotes_nothing;
        ];
      sec "admission"
        [
          case "pressure sheds, recovery admits" pressure_sheds_then_recovers;
          case "duplicate SYN answered from its half-open"
            duplicate_syn_answered;
          case "bad cookie refused" bad_cookie_refused;
        ];
      sec "keepalive"
        [
          case "healthy peer survives" keepalive_healthy_survives;
          case "dead peer reaped" keepalive_reaps_dead_peer;
        ];
      sec "sockpoll" [ case "accept and read readiness" sockpoll_accept_and_read ];
      sec "ports" [ case "listen/unlisten/rebind" port_table_lifecycle ];
      sec "footprint"
        [ case "retained words per established flow" retained_words_per_flow ];
    ]
