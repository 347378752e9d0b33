(* The fault-injection plane and the datapath's graceful degradation:
   plan semantics and determinism, the typed netmem errors, the
   Path_policy fault penalty, end-to-end recovery through the full stack
   (stalled SDMA, lost interrupts, wire corruption, pin failures,
   outboard-memory exhaustion), and the multi-seed storm soak with its
   leak invariant. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- plane semantics ---------- *)

let test_disarmed_never_fires () =
  Fault.disarm ();
  for _ = 1 to 100 do
    check_bool "no fire while disarmed" false (Fault.fire "x.y")
  done;
  check_bool "fire_at none" true (Fault.fire_at "x.y" ~bound:100 = None)

let test_plan_requires_arm () =
  Fault.disarm ();
  check_bool "plan on disarmed plane rejected" true
    (try
       Fault.plan ~site:"x.y" (Fault.Probability 0.5);
       false
     with Invalid_argument _ -> true)

let test_determinism_same_seed () =
  let draw () =
    Fault.arm ~seed:42;
    Fault.plan ~site:"det.site" (Fault.Probability 0.3);
    let v = List.init 200 (fun _ -> Fault.fire "det.site") in
    Fault.disarm ();
    v
  in
  let a = draw () and b = draw () in
  check_bool "same seed replays the same faults" true (a = b);
  check_bool "some fired" true (List.exists Fun.id a);
  check_bool "some did not" true (List.exists not a)

let test_once_at () =
  Fault.arm ~seed:1;
  Fault.plan ~site:"once.site" (Fault.Once_at 5);
  let fires =
    List.init 20 (fun _ -> Fault.fire "once.site")
    |> List.mapi (fun i f -> (i + 1, f))
    |> List.filter snd |> List.map fst
  in
  Fault.disarm ();
  Alcotest.(check (list int)) "fires exactly on the 5th consult" [ 5 ] fires

let test_every_n () =
  Fault.arm ~seed:1;
  Fault.plan ~site:"every.site" (Fault.Every_n 4);
  let fires =
    List.init 12 (fun _ -> Fault.fire "every.site")
    |> List.mapi (fun i f -> (i + 1, f))
    |> List.filter snd |> List.map fst
  in
  check_int "consults counted" 12 (Dumps.fault_site ~site:"every.site" "consults");
  check_int "fires counted" 3 (Dumps.fault_site ~site:"every.site" "fires");
  Fault.disarm ();
  Alcotest.(check (list int)) "every 4th consult" [ 4; 8; 12 ] fires

let test_fire_at_bounds () =
  Fault.arm ~seed:9;
  Fault.plan ~site:"at.site" (Fault.Probability 1.0);
  for _ = 1 to 50 do
    match Fault.fire_at "at.site" ~bound:17 with
    | Some i -> check_bool "position in bounds" true (i >= 0 && i < 17)
    | None -> Alcotest.fail "probability-1 site did not fire"
  done;
  check_bool "bound 0 never fires" true
    (Fault.fire_at "at.site" ~bound:0 = None);
  Fault.disarm ()

let test_obs_export () =
  Fault.arm ~seed:3;
  Fault.plan ~site:"obs.site" (Fault.Probability 1.0);
  let fires0 = Obs.value ~section:"fault" ~name:"fires" in
  ignore (Fault.fire "obs.site");
  check_bool "fault fires counted in Obs" true
    (Obs.value ~section:"fault" ~name:"fires" > fires0);
  check_bool "sites table registered" true
    (Obs.find ~section:"fault" ~name:"sites" <> None);
  Fault.disarm ()

(* ---------- netmem typed errors ---------- *)

let test_netmem_double_free_raises () =
  let nm = Netmem.create ~pages:8 in
  match Netmem.alloc nm ~len:100 ~state:Netmem.Ready with
  | exception Netmem.Exhausted -> Alcotest.fail "alloc failed with free pages"
  | pkt ->
      Netmem.free nm pkt;
      check_bool "second free raises" true
        (try
           Netmem.free nm pkt;
           false
         with Netmem.Double_free _ -> true)

let test_netmem_injected_exhaustion () =
  let nm = Netmem.create ~pages:8 in
  Fault.arm ~seed:1;
  Fault.plan ~site:"netmem.exhaust" (Fault.Once_at 1);
  let allocates () =
    match Netmem.alloc nm ~len:100 ~state:Netmem.Ready with
    | _ -> true
    | exception Netmem.Exhausted -> false
  in
  check_bool "injected exhaustion" false (allocates ());
  check_int "counted as failure" 1 (Netmem.failures nm);
  check_bool "next alloc recovers" true (allocates ());
  Fault.disarm ()

(* ---------- Path_policy penalty ---------- *)

(* The policy's fault penalty, as its registry gauge reads it. *)
let penalty p =
  Path_policy.register p;
  Obs.value ~section:"path_policy" ~name:"penalty"

let test_penalize_deflects_then_decays () =
  let p = Path_policy.create () in
  let decide () =
    fst (Path_policy.decide p ~len:65536 ~aligned:true ~pin_warm:true)
  in
  check_bool "healthy: big send routes Uio" true (decide () = Path_policy.Uio);
  Path_policy.penalize p;
  check_bool "penalty raised" true (penalty p > 1.0);
  check_bool "sick: same send deflected to Copy" true
    (decide () = Path_policy.Copy);
  check_int "deflection counted" 1 (Path_policy.stats p).Path_policy.penalized;
  (* the penalty decays per decision: Uio service must resume *)
  let rec until_uio n =
    if n = 0 then false
    else if decide () = Path_policy.Uio then true
    else until_uio (n - 1)
  in
  check_bool "penalty ages out" true (until_uio 50);
  (* keep deciding: the multiplicative decay must clamp back to healthy *)
  for _ = 1 to 30 do
    ignore (decide ())
  done;
  check_bool "penalty fully recovered" true (penalty p = 1.0)

let test_penalty_capped () =
  let p = Path_policy.create () in
  for _ = 1 to 20 do
    Path_policy.penalize p
  done;
  check_bool "penalty capped at 64" true (penalty p <= 64.)

(* ---------- end-to-end recovery ---------- *)

let faulty_ttcp ?(seed = 7) ?(total = 1 lsl 20) ?(force_uio = false)
    ?(adaptive = true) plans =
  let tb = Testbed.create ~watchdog:(Simtime.us 500.) () in
  Fault.arm ~seed;
  plans ();
  let r = Ttcp.run ~tb ~wsize:65536 ~total ~force_uio ~adaptive ~verify:true () in
  Fault.disarm ();
  (tb, r)

let test_stall_recovery () =
  let tb, r =
    faulty_ttcp (fun () ->
        Fault.plan ~site:"cab.sdma_stall" (Fault.Probability 0.05))
  in
  check_bool "transfer verified" true r.Ttcp.verified;
  let recov c = (Cab.stats c).Cab.tx_recoveries in
  let stalls c = (Cab.stats c).Cab.sdma_stalled in
  check_bool "stalls were injected" true
    (stalls tb.Testbed.a.Testbed.cab + stalls tb.Testbed.b.Testbed.cab > 0);
  check_bool "stalled posts reclaimed" true
    (recov tb.Testbed.a.Testbed.cab + recov tb.Testbed.b.Testbed.cab > 0);
  let d = Cab_driver.stats tb.Testbed.a.Testbed.driver in
  let d' = Cab_driver.stats tb.Testbed.b.Testbed.driver in
  check_bool "driver saw the timeouts" true
    (d.Cab_driver.sdma_timeouts + d'.Cab_driver.sdma_timeouts > 0)

let test_lost_interrupt_recovery () =
  let tb, r =
    faulty_ttcp (fun () ->
        Fault.plan ~site:"cab.lost_intr" (Fault.Probability 0.3))
  in
  check_bool "transfer verified" true r.Ttcp.verified;
  let lost c = (Cab.stats c).Cab.intr_lost in
  check_bool "interrupts were swallowed" true
    (lost tb.Testbed.a.Testbed.cab + lost tb.Testbed.b.Testbed.cab > 0);
  let d = Cab_driver.stats tb.Testbed.a.Testbed.driver in
  let d' = Cab_driver.stats tb.Testbed.b.Testbed.driver in
  check_bool "watchdog polled the rings" true
    (d.Cab_driver.watchdog_polls + d'.Cab_driver.watchdog_polls > 0)

let test_corruption_healed_by_retransmission () =
  let csum0 = Obs.value ~section:"tcp" ~name:"csum_failures_rx" in
  let _tb, r =
    faulty_ttcp ~seed:1995 ~total:(2 lsl 20) (fun () ->
        Fault.plan ~site:"wire.corrupt" (Fault.Probability 0.05))
  in
  check_bool "corrupted data never delivered" true r.Ttcp.verified;
  check_bool "checksum verify caught corruption" true
    (Obs.value ~section:"tcp" ~name:"csum_failures_rx" > csum0);
  check_bool "retransmission healed the stream" true (r.Ttcp.retransmits > 0)

let test_pin_failure_degrades_to_copy () =
  let _tb, r =
    faulty_ttcp ~force_uio:true ~adaptive:false (fun () ->
        Fault.plan ~site:"vm.pin_fail" (Fault.Every_n 1))
  in
  check_bool "transfer verified" true r.Ttcp.verified;
  check_bool "sender degraded to the copy path" true
    (r.Ttcp.sender_socket.Socket.pin_fallbacks > 0);
  (* [uio_writes] counts attempts; with every pin refused, each one must
     have fallen back to a kernel copy. *)
  check_int "every UIO attempt degraded"
    r.Ttcp.sender_socket.Socket.uio_writes
    r.Ttcp.sender_socket.Socket.pin_fallbacks;
  check_bool "copies actually happened" true
    (r.Ttcp.sender_socket.Socket.copy_writes
    >= r.Ttcp.sender_socket.Socket.pin_fallbacks)

(* A datagram send whose buffer will not pin takes the copying path, as
   a stream write does, and the datagram still arrives intact. *)
let test_dgram_pin_failure_degrades_to_copy () =
  let tb = Testbed.create () in
  let a = tb.Testbed.a.Testbed.stack and b = tb.Testbed.b.Testbed.stack in
  let a_sp = Netstack.make_space a ~name:"dg" in
  let b_sp = Netstack.make_space b ~name:"dg" in
  let sa =
    Dgram_socket.create ~host:a.Netstack.host ~space:a_sp ~proc:"app"
      ~udp:a.Netstack.udp ~ip:a.Netstack.ip ~port:4000 ()
  in
  let sb =
    Dgram_socket.create ~host:b.Netstack.host ~space:b_sp ~proc:"app"
      ~udp:b.Netstack.udp ~ip:b.Netstack.ip ~port:4001 ()
  in
  (* Large and word aligned: the single-copy route's kind of datagram. *)
  let big = Addr_space.alloc a_sp 24576 in
  Region.fill_pattern big ~seed:21;
  let rbuf = Addr_space.alloc b_sp 32768 in
  let got = ref None and consults_at_send = ref (-1) in
  Fault.arm ~seed:1;
  Fault.plan ~site:"vm.pin_fail" (Fault.Every_n 1);
  Dgram_socket.recvfrom sb rbuf (fun n _src ->
      got :=
        Some (n, Region.equal_contents (Region.sub rbuf ~off:0 ~len:n) big));
  Dgram_socket.sendto sa big ~dst:{ Udp.addr = Testbed.addr_b; port = 4001 }
    (fun () -> consults_at_send := Dumps.fault_site ~site:"vm.pin_fail" "consults");
  Sim.run ~until:(Simtime.s 5.) tb.Testbed.sim;
  Fault.disarm ();
  let st = Dgram_socket.stats sa in
  check_int "the send consulted the pin fault site" 1 !consults_at_send;
  check_int "no single-copy send" 0 st.Dgram_socket.sent_uio;
  check_int "sent by copying" 1 st.Dgram_socket.sent_copy;
  check_int "the fallback was counted" 1 st.Dgram_socket.pin_fallbacks;
  check_bool "datagram arrived intact" true (!got = Some (24576, true));
  Dgram_socket.close sa;
  Dgram_socket.close sb

let test_netmem_exhaustion_recovers () =
  let tb, r =
    faulty_ttcp (fun () ->
        Fault.plan ~site:"netmem.exhaust" (Fault.Once_at 20))
  in
  check_bool "transfer verified" true r.Ttcp.verified;
  let fails =
    Netmem.failures (Cab.netmem tb.Testbed.a.Testbed.cab)
    + Netmem.failures (Cab.netmem tb.Testbed.b.Testbed.cab)
  in
  check_bool "exhaustion was injected" true (fails > 0)

(* Every transmit post consults the stall site, header rewrites and
   gather fallbacks included.  A probe run (plane armed, no stall plan)
   finds the first post of the wanted shape among the site's consults:
   each consult is one [Sdma_post] (transmit chain) or [Rx_copyout]
   (receive copy-out) trace event, provided no copy-out parks.  Both
   shapes are one-segment chains over a data-carrying packet, so their
   [Sdma_post] is followed by the [mdma_send] doorbell of a packet longer
   than any bare header.  The aimed run stalls exactly that post with
   [Once_at]; the watchdog must reclaim and repost it, and the stream must
   finish verified with network memory back at its baseline. *)
let stall_one_post ?tcp_config ?(drop_a_frames = []) ~wsize ~total () =
  let run plan =
    let tb =
      Testbed.create ~watchdog:(Simtime.us 500.) ?tcp_config ~drop_a_frames ()
    in
    let in_use () =
      Netmem.in_use (Cab.netmem tb.Testbed.a.Testbed.cab)
      + Netmem.in_use (Cab.netmem tb.Testbed.b.Testbed.cab)
    in
    let baseline = in_use () in
    Fault.arm ~seed:7;
    plan ();
    Obs_trace.configure ~capacity:(1 lsl 16);
    Obs_trace.enable ();
    let r =
      Ttcp.run ~tb ~wsize ~total ~force_uio:true ~adaptive:false ~verify:true
        ()
    in
    Obs_trace.disable ();
    let events = Dumps.trace_events () in
    let consults = Dumps.fault_site ~site:"cab.sdma_stall" "consults" in
    Fault.disarm ();
    check_int "trace kept every event" 0 (Obs_trace.dropped ());
    Obs_trace.configure ~capacity:1024;
    (tb, r, events, consults, baseline, in_use ())
  in
  let tb, _, events, consults, _, _ = run ignore in
  let parked c = (Cab.rx_pipe_stats c).Cab.rx_pipe_stalls in
  check_int "no copy-out parked in the probe" 0
    (parked tb.Testbed.a.Testbed.cab + parked tb.Testbed.b.Testbed.cab);
  let rec find n = function
    | ("sdma_post", _, 1) :: ("doorbell", len, _) :: _ when len > 256 ->
        Some (n + 1)
    | (("sdma_post" | "rx_copyout"), _, _) :: rest -> find (n + 1) rest
    | _ :: rest -> find n rest
    | [] -> None
  in
  let posts =
    List.length
      (List.filter
         (fun (ev, _, _) -> ev = "sdma_post" || ev = "rx_copyout")
         events)
  in
  check_int "every SDMA post consulted the stall site" posts consults;
  let target =
    match find 0 events with
    | Some n -> n
    | None -> Alcotest.fail "no one-segment data post in the probe"
  in
  let tb, r, _, _, baseline, final =
    run (fun () -> Fault.plan ~site:"cab.sdma_stall" (Fault.Once_at target))
  in
  let cab = tb.Testbed.a.Testbed.cab in
  check_int "the aimed post stalled" 1 (Cab.stats cab).Cab.sdma_stalled;
  check_bool "stalled post reclaimed" true
    ((Cab.stats cab).Cab.tx_recoveries > 0);
  check_bool "driver saw the timeout" true
    ((Cab_driver.stats tb.Testbed.a.Testbed.driver).Cab_driver.sdma_timeouts
    > 0);
  check_bool "transfer verified" true r.Ttcp.verified;
  check_int "network memory drained to baseline" baseline final;
  Cab_driver.stats tb.Testbed.a.Testbed.driver

let test_stalled_rewrite_recovered () =
  let d =
    stall_one_post ~drop_a_frames:[ 3 ] ~wsize:65536 ~total:(256 * 1024) ()
  in
  check_bool "header rewrites happened" true (d.Cab_driver.tx_rewrites > 0)

let test_stalled_gather_recovered () =
  (* Coalesced odd-length writes put descriptor pieces at sub-word packet
     offsets, which sends those packets down the gather fallback. *)
  let d =
    stall_one_post
      ~tcp_config:(fun c -> { c with Tcp.coalesce_descriptors = true })
      ~wsize:1001 ~total:(64 * 1001) ()
  in
  check_bool "gather fallbacks happened" true
    (d.Cab_driver.tx_gather_fallbacks > 0)

(* ---------- the storm soak ---------- *)

(* Run on both stacks: the unmodified stack's transmit chain retains its
   host prefix until the SDMA commits (a watchdog repost re-gathers it)
   and lands receive tails in pooled storage, so its drain to baseline
   checks those ownership rules under drops, corruption and stalls. *)
let test_storm_soak () =
  List.iter
    (fun (label, mode) ->
      let reports = Exp_soak.run_storm ~mode () in
      check_int (label ^ ": eight seeds") 8 (List.length reports);
      List.iter
        (fun (r : Exp_soak.seed_report) ->
          check_bool
            (Printf.sprintf "%s seed %d completed" label r.Exp_soak.seed)
            true r.Exp_soak.completed;
          check_bool
            (Printf.sprintf "%s seed %d byte-identical" label r.Exp_soak.seed)
            true r.Exp_soak.verified;
          check_int
            (Printf.sprintf "%s seed %d leak-free" label r.Exp_soak.seed)
            0
            (List.length r.Exp_soak.leaks))
        reports;
      (* the storm must actually have exercised the recovery plane *)
      let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
      check_bool (label ^ ": stall recoveries happened") true
        (total (fun r -> r.Exp_soak.tx_recoveries) > 0);
      check_bool (label ^ ": retransmissions happened") true
        (total (fun r -> r.Exp_soak.retransmits) > 0);
      check_bool (label ^ ": checksum verify caught corruption") true
        (total (fun r -> r.Exp_soak.csum_failures) > 0))
    [ ("single-copy", Stack_mode.Single_copy); ("unmodified", Stack_mode.Unmodified) ]

let () =
  Alcotest.run "fault"
    [
      ( "plane",
        [
          Alcotest.test_case "disarmed never fires" `Quick
            test_disarmed_never_fires;
          Alcotest.test_case "plan requires arm" `Quick test_plan_requires_arm;
          Alcotest.test_case "deterministic per seed" `Quick
            test_determinism_same_seed;
          Alcotest.test_case "once_at" `Quick test_once_at;
          Alcotest.test_case "every_n" `Quick test_every_n;
          Alcotest.test_case "fire_at bounds" `Quick test_fire_at_bounds;
          Alcotest.test_case "obs export" `Quick test_obs_export;
        ] );
      ( "netmem",
        [
          Alcotest.test_case "double free raises" `Quick
            test_netmem_double_free_raises;
          Alcotest.test_case "injected exhaustion" `Quick
            test_netmem_injected_exhaustion;
        ] );
      ( "policy",
        [
          Alcotest.test_case "penalize deflects then decays" `Quick
            test_penalize_deflects_then_decays;
          Alcotest.test_case "penalty capped" `Quick test_penalty_capped;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "stalled SDMA reposted" `Quick
            test_stall_recovery;
          Alcotest.test_case "lost interrupt polled" `Quick
            test_lost_interrupt_recovery;
          Alcotest.test_case "corruption healed" `Quick
            test_corruption_healed_by_retransmission;
          Alcotest.test_case "pin failure degrades to copy" `Quick
            test_pin_failure_degrades_to_copy;
          Alcotest.test_case "datagram pin failure degrades to copy" `Quick
            test_dgram_pin_failure_degrades_to_copy;
          Alcotest.test_case "netmem exhaustion recovers" `Quick
            test_netmem_exhaustion_recovers;
          Alcotest.test_case "stalled rewrite reposted" `Quick
            test_stalled_rewrite_recovered;
          Alcotest.test_case "stalled gather reposted" `Quick
            test_stalled_gather_recovered;
        ] );
      ("soak", [ Alcotest.test_case "8-seed storm" `Quick test_storm_soak ]);
    ]
