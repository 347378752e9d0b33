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

(* ---------- Work rings (Cpu and Resource queues) ---------- *)

(* 121 normal items and 13 interrupts queue behind a running interrupt,
   and continuations submit more of both, two normal items for every one
   completed early on: the rings grow (also with their head mid-array)
   and wrap.  Completions must still come interrupt-first, FIFO within
   each class, with every cycle charged to the right bucket and site. *)
let test_cpu_ring_order () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"ring" in
  Cpu.set_idle_proc cpu "util";
  let log = ref [] in
  let note s () = log := s :: !log in
  let dur i = 10 + (i mod 7) in
  let proc i = if i mod 2 = 0 then "a" else "b" in
  (* Raised on the idle CPU: runs at once, charged to the soaker. *)
  Cpu.execute_intr cpu 50 (note "x0");
  for i = 0 to 120 do
    let k () =
      note (Printf.sprintf "n%d" i) ();
      if i >= 1 && i <= 40 then begin
        Cpu.execute cpu ~proc:"c" ~mode:Cpu.Sys 5
          (note (Printf.sprintf "m%d" i));
        Cpu.execute cpu ~proc:"c" ~mode:Cpu.Sys 5
          (note (Printf.sprintf "p%d" i))
      end;
      if i > 0 && i mod 25 = 0 then
        (* Raised while n_i is current: charged to n_i's process. *)
        Cpu.execute_intr cpu 4 (note (Printf.sprintf "y%d" i))
    in
    if i mod 3 = 0 then
      Cpu.execute cpu ~proc:(proc i) ~mode:Cpu.User ~site:Cpu.Header ~csum:2
        (dur i) k
    else Cpu.execute cpu ~proc:(proc i) ~mode:Cpu.User (dur i) k;
    if i mod 10 = 0 then
      (* Raised while x0 runs: charged to x0's victim, the soaker. *)
      Cpu.execute_intr cpu 3 (note (Printf.sprintf "x%d" (1 + (i / 10))))
  done;
  Sim.run sim;
  let ns = List.init 121 Fun.id in
  let expected =
    List.init 14 (fun j -> Printf.sprintf "x%d" j)
    @ List.concat_map
        (fun i ->
          Printf.sprintf "n%d" i
          :: (if i > 0 && i mod 25 = 0 then [ Printf.sprintf "y%d" i ] else []))
        ns
    @ List.concat_map
        (fun i -> [ Printf.sprintf "m%d" i; Printf.sprintf "p%d" i ])
        (List.init 40 succ)
  in
  Alcotest.(check (list string)) "completion order" expected (List.rev !log);
  let sum f = List.fold_left (fun acc i -> acc + f i) 0 ns in
  let charged proc mode = Cpu.charged cpu ~proc ~mode in
  check_int "soaker: x0 + 13 interrupts" (50 + (13 * 3))
    (charged "util" Cpu.Sys);
  check_int "a user" (sum (fun i -> if i mod 2 = 0 then dur i else 0))
    (charged "a" Cpu.User);
  check_int "b user" (sum (fun i -> if i mod 2 = 1 then dur i else 0))
    (charged "b" Cpu.User);
  check_int "a victim of y50, y100" 8 (charged "a" Cpu.Sys);
  check_int "b victim of y25, y75" 8 (charged "b" Cpu.Sys);
  check_int "c" (80 * 5) (charged "c" Cpu.Sys);
  let busy = 89 + sum dur + 16 + 400 in
  check_int "busy" busy (Cpu.busy cpu);
  check_int "never idle" busy (Sim.now sim);
  let thirds f = sum (fun i -> if i mod 3 = 0 then f i else 0) in
  check_int "checksum share" (thirds (fun _ -> 2))
    (Cpu.site_charged cpu Cpu.Checksum);
  check_int "header rest" (thirds (fun i -> dur i - 2))
    (Cpu.site_charged cpu Cpu.Header);
  check_int "intr" (89 + 16) (Cpu.site_charged cpu Cpu.Intr);
  check_int "other" (sum dur - thirds dur + 400)
    (Cpu.site_charged cpu Cpu.Other);
  check_int "sites_total = busy" busy (Cpu.sites_total cpu)

(* 100 holds queue behind the first and 30 more are taken from inside
   continuations: FIFO through growth and wrap-around. *)
let test_resource_ring_order () =
  let sim = Sim.create () in
  let r = Resource.create ~sim ~name:"link" in
  let log = ref [] in
  for i = 0 to 99 do
    Resource.acquire r (1 + (i mod 5)) (fun () ->
        log := i :: !log;
        if i < 30 then
          Resource.acquire r 2 (fun () -> log := (1000 + i) :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int))
    "fifo" (List.init 100 Fun.id @ List.init 30 (fun i -> 1000 + i))
    (List.rev !log);
  let held =
    List.fold_left (fun acc i -> acc + 1 + (i mod 5)) 60 (List.init 100 Fun.id)
  in
  check_int "busy time" held (Resource.busy_time r);
  check_int "back to back" held (Sim.now sim);
  check_bool "released" false (Resource.busy r)

(* Builds the continuation in its own frame, so only the queue can keep
   [payload] alive once the submission returns. *)
let[@inline never] submit_tracked submit w =
  let payload = Bytes.create 16 in
  Weak.set w 0 (Some payload);
  submit (fun () -> ignore (Sys.opaque_identity (Bytes.length payload)))

let test_ring_drops_continuations () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"weak" in
  let res = Resource.create ~sim ~name:"weak-link" in
  let wc = Weak.create 1 and wr = Weak.create 1 in
  Cpu.execute cpu ~proc:"p" ~mode:Cpu.Sys 100 ignore;
  submit_tracked (fun k -> Cpu.execute cpu ~proc:"p" ~mode:Cpu.Sys 1 k) wc;
  Resource.acquire res 100 ignore;
  submit_tracked (fun k -> Resource.acquire res 1 k) wr;
  check_bool "cpu continuation queued" true (Weak.check wc 0);
  Sim.run sim;
  Gc.full_major ();
  check_bool "cpu continuation released" false (Weak.check wc 0);
  check_bool "resource continuation released" false (Weak.check wr 0);
  (* Both queues stay live across the collection. *)
  check_int "cpu busy" 101 (Cpu.busy cpu);
  check_int "resource held" 101 (Resource.busy_time res)

(* Queueing work allocates nothing but the caller's continuation: with
   one preallocated continuation, 10,000 CPU submissions and 10,000
   resource holds into warmed-up rings average under one word each. *)
let test_ring_alloc_budget () =
  let n = 10_000 in
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"budget" in
  let res = Resource.create ~sim ~name:"budget-link" in
  let count = ref 0 in
  let k () = incr count in
  let round () =
    (* A long first item keeps both busy, so the loop only queues. *)
    Cpu.execute cpu ~proc:"p" ~mode:Cpu.Sys 1_000 k;
    Resource.acquire res 1_000 k;
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      Cpu.execute cpu ~proc:"p" ~mode:Cpu.Sys 1 k;
      Resource.acquire res 1 k
    done;
    let words = Gc.minor_words () -. w0 in
    Sim.run sim;
    words
  in
  ignore (round () : float);
  let words = round () in
  check_int "every item completed" (4 * (n + 1)) !count;
  check_bool
    (Printf.sprintf "%.0f words for %d items" words (2 * n))
    true
    (words /. float_of_int (2 * n) < 1.)

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
          Alcotest.test_case "ring order and accounting" `Quick
            test_cpu_ring_order;
          QCheck_alcotest.to_alcotest prop_cpu_conservation;
        ] );
      ( "rings",
        [
          Alcotest.test_case "resource fifo through growth" `Quick
            test_resource_ring_order;
          Alcotest.test_case "completed continuations released" `Quick
            test_ring_drops_continuations;
          Alcotest.test_case "allocation budget" `Quick test_ring_alloc_budget;
        ] );
      ( "rng+stats",
        [
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
          QCheck_alcotest.to_alcotest prop_rng_bounds;
        ] );
    ]
