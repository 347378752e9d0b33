(* The fault-injection plane and the datapath's graceful degradation:
   plan semantics and determinism, the typed netmem errors, the
   Path_policy fault penalty, end-to-end recovery through the full stack
   (stalled SDMA, lost interrupts, wire corruption, pin failures,
   outboard-memory exhaustion), and the multi-seed storm soak with its
   leak invariant. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let counter_value ~section ~name =
  match Obs.find ~section ~name with
  | Some (Obs.M_counter c) -> Obs.Counter.get c
  | _ -> 0

(* ---------- plane semantics ---------- *)

let test_disarmed_never_fires () =
  Fault.disarm ();
  check_bool "disarmed" false (Fault.armed ());
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
  check_int "consults counted" 12 (Fault.consults ~site:"every.site");
  check_int "fires counted" 3 (Fault.fires ~site:"every.site");
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
  let fires0 = counter_value ~section:"fault" ~name:"fires" in
  ignore (Fault.fire "obs.site");
  check_bool "fault fires counted in Obs" true
    (counter_value ~section:"fault" ~name:"fires" > fires0);
  check_bool "sites table registered" true
    (Obs.find ~section:"fault" ~name:"sites" <> None);
  Fault.disarm ()

(* ---------- netmem typed errors ---------- *)

let test_netmem_double_free_raises () =
  let nm = Netmem.create ~pages:8 in
  match Netmem.alloc nm ~len:100 ~state:Netmem.Ready with
  | None -> Alcotest.fail "alloc failed with free pages"
  | Some pkt ->
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
  check_bool "injected exhaustion" true
    (Netmem.alloc nm ~len:100 ~state:Netmem.Ready = None);
  check_int "counted as failure" 1 (Netmem.failures nm);
  check_bool "next alloc recovers" true
    (Netmem.alloc nm ~len:100 ~state:Netmem.Ready <> None);
  Fault.disarm ()

(* ---------- Path_policy penalty ---------- *)

let test_penalize_deflects_then_decays () =
  let p = Path_policy.create () in
  let decide () =
    fst (Path_policy.decide p ~len:65536 ~aligned:true ~pin_warm:true)
  in
  check_bool "healthy: big send routes Uio" true (decide () = Path_policy.Uio);
  Path_policy.penalize p;
  check_bool "penalty raised" true (Path_policy.penalty p > 1.0);
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
  check_bool "penalty fully recovered" true (Path_policy.penalty p = 1.0)

let test_penalty_capped () =
  let p = Path_policy.create () in
  for _ = 1 to 20 do
    Path_policy.penalize p
  done;
  check_bool "penalty capped at 64" true (Path_policy.penalty p <= 64.)

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
  let csum0 = counter_value ~section:"tcp" ~name:"csum_failures_rx" in
  let _tb, r =
    faulty_ttcp ~seed:1995 ~total:(2 lsl 20) (fun () ->
        Fault.plan ~site:"wire.corrupt" (Fault.Probability 0.05))
  in
  check_bool "corrupted data never delivered" true r.Ttcp.verified;
  check_bool "checksum verify caught corruption" true
    (counter_value ~section:"tcp" ~name:"csum_failures_rx" > csum0);
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
          Alcotest.test_case "netmem exhaustion recovers" `Quick
            test_netmem_exhaustion_recovers;
        ] );
      ("soak", [ Alcotest.test_case "8-seed storm" `Quick test_storm_soak ]);
    ]
