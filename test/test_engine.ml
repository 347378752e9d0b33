(* Unit and property tests for the discrete-event engine. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Simtime ---------- *)

let test_time_conversions () =
  check_int "1us" 1_000 (Simtime.us 1.);
  check_int "1ms" 1_000_000 (Simtime.ms 1.);
  check_int "1s" 1_000_000_000 (Simtime.s 1.);
  Alcotest.(check (float 1e-9)) "round trip" 2.5 (Simtime.to_us (Simtime.us 2.5))

let test_time_rate () =
  (* 100 MByte/s: 1 MByte takes 10 ms. *)
  let t = Simtime.of_bytes_at_rate ~bytes_per_s:100e6 1_000_000 in
  check_int "1MB at 100MB/s" (Simtime.ms 10.) t;
  check_int "zero bytes" 0 (Simtime.of_bytes_at_rate ~bytes_per_s:100e6 0);
  check_bool "positive for 1 byte" true
    (Simtime.of_bytes_at_rate ~bytes_per_s:1e12 1 > 0)

let test_rate_mbit () =
  (* 1 MByte in 10ms = 800 Mbit/s. *)
  let r = Simtime.rate_mbit ~bytes:1_000_000 (Simtime.ms 10.) in
  Alcotest.(check (float 0.01)) "800 Mbit/s" 800. r;
  Alcotest.(check (float 0.)) "zero elapsed" 0. (Simtime.rate_mbit ~bytes:5 0)

(* ---------- Event_queue ---------- *)

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:30 "c";
  Event_queue.push q ~time:10 "a";
  Event_queue.push q ~time:20 "b";
  let order = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list (option (pair int string))))
    "sorted" [ Some (10, "a"); Some (20, "b"); Some (30, "c") ] order;
  Alcotest.(check (option (pair int string))) "empty" None (Event_queue.pop q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do Event_queue.push q ~time:5 i done;
  let out = List.init 10 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list int)) "ties fire in push order" (List.init 10 Fun.id) out

let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 10000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain min_int)

(* ---------- Sim ---------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim 100 (fun () -> log := ("b", Sim.now sim) :: !log));
  ignore (Sim.at sim 50 (fun () -> log := ("a", Sim.now sim) :: !log));
  ignore
    (Sim.at sim 50 (fun () ->
         (* Events scheduled from handlers run later the same instant. *)
         ignore (Sim.after sim 0 (fun () -> log := ("a2", Sim.now sim) :: !log))));
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "order" [ ("a", 50); ("a2", 50); ("b", 100) ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.at sim 10 (fun () -> fired := true) in
  Sim.stop sim h;
  Sim.run sim;
  check_bool "cancelled event did not fire" false !fired;
  check_bool "handle reports disarmed" false (Sim.armed h)

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.after sim 10 tick)
  in
  ignore (Sim.after sim 10 tick);
  Sim.run ~until:105 sim;
  check_int "ticks up to limit" 10 !count;
  check_int "clock at limit" 105 (Sim.now sim)

let test_sim_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.at sim 100 (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Sim.at: time 50ns is in the past (now 100ns)")
    (fun () -> ignore (Sim.at sim 50 (fun () -> ())))

let test_sim_stuck_guard () =
  let sim = Sim.create () in
  let rec loop () = ignore (Sim.after sim 0 loop) in
  ignore (Sim.after sim 0 loop);
  check_bool "loop guard trips" true
    (try
       Sim.run ~max_events:1000 sim;
       false
     with Sim.Stuck _ -> true)

(* ---------- Cpu ---------- *)

let test_cpu_serializes () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"host" in
  let done_at = ref [] in
  Cpu.execute cpu ~proc:"p" ~mode:Cpu.User 100 (fun () ->
      done_at := Sim.now sim :: !done_at);
  Cpu.execute cpu ~proc:"p" ~mode:Cpu.User 50 (fun () ->
      done_at := Sim.now sim :: !done_at);
  Sim.run sim;
  Alcotest.(check (list int)) "sequential completion" [ 150; 100 ] !done_at;
  check_int "user time charged" 150 (Cpu.charged cpu ~proc:"p" ~mode:Cpu.User)

let test_cpu_interrupt_priority () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"host" in
  let order = ref [] in
  Cpu.execute cpu ~proc:"a" ~mode:Cpu.User 100 (fun () ->
      order := "a" :: !order);
  Cpu.execute cpu ~proc:"b" ~mode:Cpu.User 100 (fun () ->
      order := "b" :: !order);
  (* Interrupt raised while [a] runs: must execute before [b]. *)
  ignore
    (Sim.at sim 10 (fun () ->
         Cpu.execute_intr cpu 5 (fun () -> order := "intr" :: !order)));
  Sim.run sim;
  Alcotest.(check (list string)) "intr preempts queue" [ "b"; "intr"; "a" ]
    !order

let test_cpu_interrupt_mischarge () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"host" in
  Cpu.set_idle_proc cpu "util";
  (* Interrupt while idle: charged to util as system time (the paper's
     methodology hinges on this). *)
  Cpu.execute_intr cpu 40 (fun () -> ());
  (* Interrupt while ttcp runs: charged to ttcp. *)
  ignore
    (Sim.at sim 100 (fun () ->
         Cpu.execute cpu ~proc:"ttcp" ~mode:Cpu.User 100 (fun () -> ());
         Cpu.execute_intr cpu 7 (fun () -> ())));
  Sim.run sim;
  check_int "idle-time intr -> util sys" 40
    (Cpu.charged cpu ~proc:"util" ~mode:Cpu.Sys);
  check_int "busy-time intr -> ttcp sys" 7
    (Cpu.charged cpu ~proc:"ttcp" ~mode:Cpu.Sys);
  check_int "busy total" (40 + 100 + 7) (Cpu.busy cpu)

let prop_cpu_conservation =
  QCheck.Test.make
    ~name:"cpu charges exactly the submitted work, any interleaving"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_range 0 2) (int_range 0 500)))
    (fun jobs ->
      let sim = Sim.create () in
      let cpu = Cpu.create ~sim ~name:"c" in
      let total = ref 0 in
      List.iteri
        (fun i (kind, d) ->
          total := !total + d;
          match kind with
          | 0 -> Cpu.execute cpu ~proc:"a" ~mode:Cpu.User d (fun () -> ())
          | 1 -> Cpu.execute cpu ~proc:"b" ~mode:Cpu.Sys d (fun () -> ())
          | _ ->
              ignore
                (Sim.at sim (i * 7) (fun () ->
                     Cpu.execute_intr cpu d (fun () -> ()))))
        jobs;
      Sim.run sim;
      Cpu.busy cpu = !total)

let test_cpu_zero_duration () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"host" in
  let hits = ref 0 in
  for _ = 1 to 5 do
    Cpu.execute cpu ~proc:"p" ~mode:Cpu.Sys 0 (fun () -> incr hits)
  done;
  Sim.run sim;
  check_int "zero-cost work completes" 5 !hits

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.create ~seed:43 in
  let zs = List.init 20 (fun _ -> Rng.int c 1000) in
  check_bool "different seed differs" true (xs <> zs)

let prop_rng_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "engine"
    [
      ( "simtime",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "byte rates" `Quick test_time_rate;
          Alcotest.test_case "mbit rates" `Quick test_rate_mbit;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          QCheck_alcotest.to_alcotest prop_queue_sorted;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "past rejected" `Quick test_sim_past_raises;
          Alcotest.test_case "stuck guard" `Quick test_sim_stuck_guard;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes work" `Quick test_cpu_serializes;
          Alcotest.test_case "interrupt priority" `Quick
            test_cpu_interrupt_priority;
          Alcotest.test_case "interrupt mischarge" `Quick
            test_cpu_interrupt_mischarge;
          Alcotest.test_case "zero duration" `Quick test_cpu_zero_duration;
          QCheck_alcotest.to_alcotest prop_cpu_conservation;
        ] );
      ( "rng+stats",
        [
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
          QCheck_alcotest.to_alcotest prop_rng_bounds;
        ] );
    ]
