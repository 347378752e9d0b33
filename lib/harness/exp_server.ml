(* The 100K-flow server scenario: connection-plane overload robustness.

   Host B runs an RPC service on a bounded listener (accept queue 1024,
   SYN queue 512, cookies on) driven through the {!Sockpoll} readiness
   loop, while four long-lived bulk flows stream to it on legacy ports.
   Host A churns short RPC connections closed-loop — [concurrency]
   (256) in flight, each a 256-byte request / 256-byte reply / close — until
   the server has accepted [target] connections.  The bulk flows'
   aggregate throughput over exactly the churn window is the
   established-flow health metric.

   The flood variant arms the [tcp.synflood] fault site (forged SYNs
   injected at the listener from spoofed sources, never completing) and
   [conn.accept_full] (handshakes refused at the accept queue): the SYN
   queue saturates, the penalty/cookie/shedding machinery engages, and
   the gate checks the bulk flows keep >= 0.8x their no-flood
   throughput while sheds and cookies are both non-zero.

   Every run ends with the testbed's drain check: everything is closed,
   the listener drained, the simulation quiesced, and every
   {!Testbed.occupancy} metric must return exactly to baseline. *)

type result = {
  flood : bool;
  target : int;
  accepted : int;  (* server-side accepts (the >= 100K gate) *)
  rpc_completed : int;  (* full request/reply/close cycles *)
  client_retries : int;  (* churn connections that died and were relaunched *)
  bulk_mbit : float;  (* aggregate bulk throughput over the churn window *)
  syn_rcvd : int;
  syn_queued : int;
  synack_rexmits : int;
  syn_timeouts : int;
  flood_injected : int;
  cookies_sent : int;
  cookies_validated : int;
  cookies_rejected : int;
  sheds : int;  (* pressure + accept-share + penalty shed SYNs *)
  shed_pressure : int;
  shed_accept : int;
  shed_penalty : int;
  accept_overflows : int;
  accept_p50_us : float option;
  accept_p99_us : float option;
  elapsed_s : float;  (* sim seconds of the churn window *)
  events : int;
  leaks : Testbed.leak list;
  ok : bool;
}

let conn_counter name = int_of_float (Obs.value ~section:"conn" ~name)

(* The conn counters a result reports, each as a delta over the run. *)
let conn_reported =
  [
    "syn_rcvd"; "syn_queued"; "synack_rexmits"; "syn_timeouts";
    "flood_injected"; "cookies_sent"; "cookies_validated"; "cookies_rejected";
    "shed_pressure"; "shed_accept"; "shed_penalty"; "accept_overflow";
  ]

let rpc_port = 7000
let bulk_ports = [ 7100; 7101; 7102; 7103 ]
let rpc_bytes = 256
let bulk_block = 32 * 1024
let concurrency = 256
let fault_seed = 42

let run ?(flood = false) ?(target = 100_000) () =
  let tb =
    Testbed.create ~shards:4
      ~tcp_config:(fun c ->
        {
          c with
          Tcp.msl = Simtime.ms 1.;
          (* churn reuses ephemeral ports: drain TIME_WAIT fast *)
          Tcp.keepalive_idle = Simtime.ms 500.;
          Tcp.keepalive_intvl = Simtime.ms 100.;
          Tcp.keepalive_probes = 4;
        })
      ()
  in
  let sim = tb.Testbed.sim in
  let tcp_a = tb.Testbed.a.Testbed.stack.Netstack.tcp in
  let tcp_b = tb.Testbed.b.Testbed.stack.Netstack.tcp in
  (* Baselines: process-global conn counters are cumulative, so every
     figure this run reports is a delta from here. *)
  let conn0 = List.map (fun name -> (name, conn_counter name)) conn_reported in
  let baseline = Testbed.occupancy tb in
  (* Memory-pressure admission: the server's listener sheds all new
     SYNs when its adaptor's network memory is nearly exhausted. *)
  let nm_b = Cab.netmem tb.Testbed.b.Testbed.cab in
  Tcp.set_pressure_fn tcp_b (fun () ->
      float_of_int (Netmem.in_use nm_b)
      /. float_of_int (max 1 (Netmem.capacity_pages nm_b)));
  if flood then begin
    Fault.arm ~seed:fault_seed;
    Fault.plan ~site:"tcp.synflood" (Fault.Probability 0.3);
    Fault.plan ~site:"conn.accept_full" (Fault.Every_n 400)
  end;

  (* ---- server: bounded listener + Sockpoll-driven RPC service ---- *)
  let accepted = ref 0 in
  let rpc_completed = ref 0 in
  let churn_done = ref false in
  let l =
    Tcp.create_listener tcp_b ~port:rpc_port ~backlog:1024 ~syn_backlog:512
      ~rst_on_full:true ~cookies:true ()
  in
  let serve_rpc pcb =
    (* In-kernel echo service: read the 256-byte request, send the
       reply, close when the client's FIN arrives. *)
    let replied = ref false in
    let on_readable () =
      if (not !replied) && Tcp.recv_available pcb >= rpc_bytes then begin
        (match Tcp.recv pcb ~max:rpc_bytes with
        | Some m -> Mbuf.free m
        | None -> ());
        replied := true;
        (match
           Tcp.sosend_append pcb ~proc:"rpc"
             (Mbuf.alloc ~pkthdr:true rpc_bytes)
         with
        | Ok () -> incr rpc_completed
        | Error _ -> ())
      end;
      match Tcp.state pcb with
      | Tcp.Close_wait when Tcp.recv_available pcb = 0 -> Tcp.close pcb
      | _ -> ()
    in
    Tcp.set_callbacks pcb ~on_readable ();
    on_readable ()
  in
  let poller = Sockpoll.create () in
  ignore (Sockpoll.add_listener poller ~data:0 l : Sockpoll.entry);
  let rec service_loop () =
    Sockpoll.wait poller (fun evs ->
        List.iter
          (fun ev ->
            match ev.Sockpoll.ev_item with
            | Sockpoll.Listener l ->
                let rec drain () =
                  match Tcp.accept l with
                  | Some pcb ->
                      incr accepted;
                      serve_rpc pcb;
                      drain ()
                  | None -> ()
                in
                drain ()
            | Sockpoll.Sock _ -> ())
          evs;
        service_loop ())
  in
  service_loop ();

  (* ---- four long-lived bulk flows (the established-flow canary) ---- *)
  let bulk_got = ref 0 in
  let bulk_senders = ref [] in
  List.iter
    (fun port ->
      Tcp.listen tcp_b ~port ~on_accept:(fun pcb ->
          let on_readable () =
            let rec drain () =
              if Tcp.recv_available pcb > 0 then
                match Tcp.recv pcb ~max:bulk_block with
                | Some m ->
                    bulk_got := !bulk_got + Mbuf.chain_len m;
                    Mbuf.free m;
                    drain ()
                | None -> ()
            in
            drain ();
            match Tcp.state pcb with
            | Tcp.Close_wait when Tcp.recv_available pcb = 0 -> Tcp.close pcb
            | _ -> ()
          in
          Tcp.set_callbacks pcb ~on_readable ()))
    bulk_ports;
  List.iter
    (fun port ->
      let pcb = ref None in
      pcb :=
        Some
          (Tcp.connect tcp_a ~dst:Testbed.addr_b ~dst_port:port
             ~on_established:(fun () ->
               let p = Option.get !pcb in
               bulk_senders := p :: !bulk_senders;
               let rec push () =
                 match Tcp.state p with
                 | Tcp.Established when not !churn_done ->
                     if Tcp.snd_space p >= bulk_block then (
                       match
                         Tcp.sosend_append p ~proc:"bulk"
                           (Mbuf.alloc ~pkthdr:true bulk_block)
                       with
                       | Ok () -> push ()
                       | Error _ -> ())
                 | Tcp.Established -> Tcp.close p
                 | _ -> ()
               in
               Tcp.set_callbacks p ~on_sendable:push ();
               push ())
             ()))
    bulk_ports;

  (* ---- client churn: closed-loop RPC connections ---- *)
  let retries = ref 0 in
  let rec launch () =
    if not !churn_done then begin
      let pcb = ref None in
      let done_ = ref false in
      let finish ~completed =
        if not !done_ then begin
          done_ := true;
          if not completed then incr retries;
          (* Replacement keeps the closed loop at [concurrency]. *)
          if not !churn_done then launch ()
        end
      in
      pcb :=
        Some
          (Tcp.connect tcp_a ~dst:Testbed.addr_b ~dst_port:rpc_port
             ~on_established:(fun () ->
               let p = Option.get !pcb in
               (match
                  Tcp.sosend_append p ~proc:"rpc"
                    (Mbuf.alloc ~pkthdr:true rpc_bytes)
                with
               | Ok () -> ()
               | Error _ -> ());
               Tcp.set_callbacks p
                 ~on_readable:(fun () ->
                   if Tcp.recv_available p >= rpc_bytes then begin
                     (match Tcp.recv p ~max:rpc_bytes with
                     | Some m -> Mbuf.free m
                     | None -> ());
                     Tcp.close p;
                     finish ~completed:true
                   end
                   else
                     match Tcp.state p with
                     | Tcp.Close_wait | Tcp.Closing | Tcp.Last_ack
                     | Tcp.Time_wait | Tcp.Closed ->
                         Tcp.close p;
                         finish ~completed:false
                     | _ -> ())
                 ~on_closed:(fun () -> finish ~completed:false)
                 ())
             ())
    end
  in
  (* The watcher trips the flag the moment the server has accepted the
     target; the churn's replacement spawning stops on its own. *)
  let t0 = Sim.now sim in
  let t_end = ref t0 in
  let stop_churn () =
    churn_done := true;
    List.iter Tcp.close !bulk_senders
  in
  let rec watch () =
    if !accepted >= target then begin
      t_end := Sim.now sim;
      stop_churn ()
    end
    else ignore (Sim.after sim (Simtime.ms 1.) watch : Sim.handle)
  in
  for _ = 1 to concurrency do
    launch ()
  done;
  watch ();
  Sim.run ~until:(Simtime.s 600.) sim;
  if flood then Fault.disarm ();
  let elapsed =
    if !churn_done then Simtime.sub !t_end t0
    else Simtime.sub (Sim.now sim) t0
  in
  let bulk_mbit =
    float_of_int (!bulk_got * 8) /. Simtime.to_s elapsed /. 1e6
  in

  (* ---- drain to baseline ---- *)
  (* If the wall cap expired before the target, the watcher never fired:
     stop the churn and bulk senders here so quiesce can still prove the
     exact-drain invariant (the accepted-count shortfall fails [ok] on
     its own). *)
  if not !churn_done then stop_churn ();
  Tcp.close_listener l;
  List.iter (fun port -> Tcp.unlisten tcp_b ~port) bulk_ports;
  (* Generous slack: stuck SYN_SENT churn clients need the full
     12-rexmit backoff (~30 s) to give up on themselves, and idle-flow
     reaping needs keepalive_idle + probes * keepalive_intvl. *)
  Testbed.quiesce tb ~slack:(Simtime.s 40.);
  let leaks = Testbed.leaks tb baseline in
  let d name = conn_counter name - List.assoc name conn0 in
  let shed_pressure = d "shed_pressure" in
  let shed_accept = d "shed_accept" in
  let shed_penalty = d "shed_penalty" in
  let quantile_us h q =
    match Obs.Histogram.quantile h q with
    | Some ns -> Some (ns /. 1e3)
    | None -> None
  in
  {
    flood;
    target;
    accepted = !accepted;
    rpc_completed = !rpc_completed;
    client_retries = !retries;
    bulk_mbit;
    syn_rcvd = d "syn_rcvd";
    syn_queued = d "syn_queued";
    synack_rexmits = d "synack_rexmits";
    syn_timeouts = d "syn_timeouts";
    flood_injected = d "flood_injected";
    cookies_sent = d "cookies_sent";
    cookies_validated = d "cookies_validated";
    cookies_rejected = d "cookies_rejected";
    sheds = shed_pressure + shed_accept + shed_penalty;
    shed_pressure;
    shed_accept;
    shed_penalty;
    accept_overflows = d "accept_overflow";
    accept_p50_us = quantile_us Obs_lat.accept_ns 0.5;
    accept_p99_us = quantile_us Obs_lat.accept_ns 0.99;
    elapsed_s = Simtime.to_s elapsed;
    events = Sim.events_fired sim;
    leaks;
    ok = !accepted >= target && leaks = [];
  }

let print (r : result) =
  Tabulate.print_header
    (Printf.sprintf "server-100K-mixed%s: %d RPC accepts over 4 bulk flows"
       (if r.flood then " (SYN flood)" else "")
       r.target);
  Printf.printf
    "  accepted %d (target %d), %d RPC completed, %d client retries\n\
    \  bulk aggregate %.1f Mbit/s over %.2f s; %d sim events\n\
    \  syn: %d rcvd / %d queued / %d synack-rexmit / %d timeout / %d forged\n\
    \  cookies: %d sent, %d validated, %d rejected\n\
    \  shed: %d pressure + %d accept-share + %d penalty; %d accept overflow\n"
    r.accepted r.target r.rpc_completed r.client_retries r.bulk_mbit
    r.elapsed_s r.events r.syn_rcvd r.syn_queued r.synack_rexmits
    r.syn_timeouts r.flood_injected r.cookies_sent r.cookies_validated
    r.cookies_rejected r.shed_pressure r.shed_accept r.shed_penalty
    r.accept_overflows;
  (match (r.accept_p50_us, r.accept_p99_us) with
  | Some p50, Some p99 ->
      Printf.printf "  accept queue residency: p50 %.1f us, p99 %.1f us\n" p50
        p99
  | _ -> ());
  List.iter
    (fun l -> Printf.printf "  LEAK %s\n" (Testbed.string_of_leak l))
    r.leaks;
  Printf.printf "  %s\n" (if r.ok then "ok" else "NOT OK")
