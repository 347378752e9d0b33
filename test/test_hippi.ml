(* Tests for the HIPPI link and switch, including the head-of-line
   blocking result the paper cites (§2.1). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_link_delivery () =
  let sim = Sim.create () in
  let link = Hippi_link.create ~sim ~latency:(Simtime.us 1.) () in
  let got = ref [] in
  Hippi_link.set_rx link Hippi_link.B (fun b ->
      got := (Sim.now sim, Bytes.length b) :: !got);
  (* 1 MByte at 100 MB/s = 10 ms serialization + 1 us latency. *)
  Hippi_link.send link ~from:Hippi_link.A (Bytes.create 1_000_000);
  Sim.run sim;
  (match !got with
  | [ (t, len) ] ->
      check_int "length" 1_000_000 len;
      check_int "arrival time" (Simtime.ms 10. + Simtime.us 1.) t
  | _ -> Alcotest.fail "expected exactly one frame");
  check_int "bytes carried" 1_000_000 (Hippi_link.bytes_carried link)

let test_link_serializes () =
  let sim = Sim.create () in
  let link = Hippi_link.create ~sim ~latency:0 () in
  let arrivals = ref [] in
  Hippi_link.set_rx link Hippi_link.B (fun _ ->
      arrivals := Sim.now sim :: !arrivals);
  Hippi_link.send link ~from:Hippi_link.A (Bytes.create 100_000);
  Hippi_link.send link ~from:Hippi_link.A (Bytes.create 100_000);
  Sim.run sim;
  Alcotest.(check (list int)) "back-to-back serialization"
    [ Simtime.ms 2.; Simtime.ms 1. ]
    !arrivals

let test_link_full_duplex () =
  let sim = Sim.create () in
  let link = Hippi_link.create ~sim ~latency:0 () in
  let a_t = ref 0 and b_t = ref 0 in
  Hippi_link.set_rx link Hippi_link.A (fun _ -> a_t := Sim.now sim);
  Hippi_link.set_rx link Hippi_link.B (fun _ -> b_t := Sim.now sim);
  Hippi_link.send link ~from:Hippi_link.A (Bytes.create 100_000);
  Hippi_link.send link ~from:Hippi_link.B (Bytes.create 100_000);
  Sim.run sim;
  check_int "directions independent" !a_t !b_t

let test_switch_basic_forwarding () =
  let sim = Sim.create () in
  let sw = Hippi_switch.create ~sim ~ports:4 Hippi_switch.Fifo in
  let got = ref [] in
  Hippi_switch.attach sw ~port:2 (fun b -> got := Bytes.length b :: !got);
  Hippi_switch.submit sw ~src:0 ~dst:2 (Bytes.create 4096);
  Sim.run sim;
  Alcotest.(check (list int)) "one frame, delivered to port 2" [ 4096 ] !got

let test_switch_hol_blocking_scenario () =
  (* Two inputs both target output 0 first, then output 1.  FIFO forces
     input 1's second frame to wait even though output 1 is idle. *)
  let run discipline =
    let sim = Sim.create () in
    let sw = Hippi_switch.create ~sim ~ports:2 ~latency:0 discipline in
    let done_t = Array.make 2 0 in
    Hippi_switch.attach sw ~port:0 (fun _ -> done_t.(0) <- Sim.now sim);
    Hippi_switch.attach sw ~port:1 (fun _ -> done_t.(1) <- Sim.now sim);
    (* Input 0: one big frame to output 0 (takes 10 ms). *)
    Hippi_switch.submit sw ~src:0 ~dst:0 (Bytes.create 1_000_000);
    (* Input 1: frame to (busy) output 0, then frame to (idle) output 1. *)
    Hippi_switch.submit sw ~src:1 ~dst:0 (Bytes.create 1_000_000);
    Hippi_switch.submit sw ~src:1 ~dst:1 (Bytes.create 1_000_000);
    Sim.run sim;
    done_t.(1)
  in
  let fifo_time = run Hippi_switch.Fifo in
  let lc_time = run Hippi_switch.Logical_channels in
  (* FIFO: output-1 frame waits behind the blocked head: finishes at 30ms.
     Logical channels: it goes immediately: finishes at 10ms. *)
  check_int "fifo HOL delays output-1 frame" (Simtime.ms 30.) fifo_time;
  check_int "logical channels avoid HOL" (Simtime.ms 10.) lc_time

let measure_utilization discipline ~ports ~seed =
  let sim = Sim.create () in
  let sw =
    Hippi_switch.create ~sim ~ports ~latency:(Simtime.us 1.) discipline
  in
  let rng = Rng.create ~seed in
  let gen = Hippi_traffic.saturate ~switch:sw ~rng ~frame_bytes:32768 in
  let u =
    Hippi_traffic.run_measurement ~sim ~switch:sw ~warmup:(Simtime.ms 50.)
      ~window:(Simtime.ms 300.)
  in
  Hippi_traffic.stop gen;
  u

let test_hol_utilization_bound () =
  (* §2.1: "one can utilize at most 58% of the network bandwidth, assuming
     random traffic".  Finite-port FIFO lands in the 55-70% band; logical
     channels must clear 85%. *)
  let fifo = measure_utilization Hippi_switch.Fifo ~ports:8 ~seed:11 in
  let lc = measure_utilization Hippi_switch.Logical_channels ~ports:8 ~seed:11 in
  check_bool
    (Printf.sprintf "fifo utilization %.3f in HOL band" fifo)
    true
    (fifo > 0.45 && fifo < 0.75);
  check_bool (Printf.sprintf "lc utilization %.3f high" lc) true (lc > 0.85);
  check_bool "lc beats fifo" true (lc > fifo +. 0.15)

let prop_switch_conserves_frames =
  QCheck.Test.make ~name:"switch delivers every submitted frame" ~count:150
    QCheck.(
      pair (int_range 2 6)
        (list_of_size Gen.(1 -- 40) (triple (int_bound 5) (int_bound 5) (int_range 1 20000))))
    (fun (ports, frames) ->
      let sim = Sim.create () in
      let run discipline =
        let sw = Hippi_switch.create ~sim ~ports ~latency:0 discipline in
        let got = Array.make ports 0 and delivered = ref 0 in
        for p = 0 to ports - 1 do
          Hippi_switch.attach sw ~port:p (fun f ->
              incr delivered;
              got.(p) <- got.(p) + Bytes.length f)
        done;
        let expect = Array.make ports 0 in
        List.iter
          (fun (src, dst, len) ->
            let src = src mod ports and dst = dst mod ports in
            expect.(dst) <- expect.(dst) + len;
            Hippi_switch.submit sw ~src ~dst (Bytes.create len))
          frames;
        Sim.run sim;
        got = expect && !delivered = List.length frames
      in
      run Hippi_switch.Fifo && run Hippi_switch.Logical_channels)

(* A frame's trip over the link allocates nothing: the serializer owns
   preallocated job records and the delay line preallocated slots, each
   finished by one function installed at creation.  10,000 sends of a test-owned frame,
   through to the receiver, average under one word each.  The frame is
   large enough that every deadline lands on the timer wheel, which
   schedules without allocating. *)
let test_link_alloc_budget () =
  let n = 10_000 in
  let sim = Sim.create () in
  let link = Hippi_link.create ~sim () in
  let frame = Bytes.create 65536 in
  let got = ref 0 in
  Hippi_link.set_rx link Hippi_link.B (fun f -> if f == frame then incr got);
  let w =
    Alloc_budget.measure n
      ~submit:(fun _ -> Hippi_link.send link ~from:Hippi_link.A frame)
      ~drain:(fun () -> Sim.run sim)
  in
  check_int "every frame reached the receiver" (2 * n) !got;
  check_bool
    (Printf.sprintf "%.2f words per send + %.2f per arrival" w.submit w.drain)
    true
    (w.submit +. w.drain < 1.)

let () =
  Alcotest.run "hippi"
    [
      ( "link",
        [
          Alcotest.test_case "delivery timing" `Quick test_link_delivery;
          Alcotest.test_case "serialization" `Quick test_link_serializes;
          Alcotest.test_case "full duplex" `Quick test_link_full_duplex;
          Alcotest.test_case "allocation budget" `Quick test_link_alloc_budget;
        ] );
      ( "switch",
        [
          Alcotest.test_case "forwarding" `Quick test_switch_basic_forwarding;
          Alcotest.test_case "HOL scenario" `Quick
            test_switch_hol_blocking_scenario;
          Alcotest.test_case "HOL utilization band" `Slow
            test_hol_utilization_bound;
          QCheck_alcotest.to_alcotest prop_switch_conserves_frames;
        ] );
    ]
