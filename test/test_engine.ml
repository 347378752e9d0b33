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

(* A record keyed the way [Sim] stamps one before a push; its callback
   stands for the payload. *)
let record ~time ~seq =
  let tm = Timer_wheel.make ~fn:ignore in
  tm.Timer_wheel.deadline <- time;
  tm.Timer_wheel.seq <- seq;
  tm

(* Drain the queue the way [Sim.run]'s merge loop does: read the root's
   key with [min_time]/[peek_seq], then [take] it. *)
let drain_queue q =
  let rec go acc =
    if Event_queue.is_empty q then List.rev acc
    else begin
      let time = Event_queue.min_time q and seq = Event_queue.peek_seq q in
      let tm = Event_queue.take q in
      go ((time, seq, tm) :: acc)
    end
  in
  go []

let test_queue_order () =
  let q = Event_queue.create () in
  let c = record ~time:30 ~seq:0 and a = record ~time:10 ~seq:1
  and b = record ~time:20 ~seq:2 in
  List.iter (Event_queue.push q) [ c; a; b ];
  let out = drain_queue q in
  Alcotest.(check (list (pair int int)))
    "sorted" [ (10, 1); (20, 2); (30, 0) ]
    (List.map (fun (t, s, _) -> (t, s)) out);
  check_bool "the records themselves come back" true
    (List.for_all2 (fun (_, _, tm) r -> tm == r) out [ a; b; c ]);
  check_bool "taken records are resident nowhere" true
    (List.for_all (fun r -> r.Timer_wheel.where = Timer_wheel.w_none) [ a; b; c ]);
  check_int "empty min_time" max_int (Event_queue.min_time q);
  check_int "empty peek_seq" max_int (Event_queue.peek_seq q)

let test_queue_fifo_ties () =
  (* Pushed in reverse: ties leave by seq, not by push order. *)
  let q = Event_queue.create () in
  for i = 9 downto 0 do Event_queue.push q (record ~time:5 ~seq:i) done;
  let out = List.map (fun (_, s, _) -> s) (drain_queue q) in
  Alcotest.(check (list int)) "ties leave in seq order" (List.init 10 Fun.id)
    out

let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 10000))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun seq time -> Event_queue.push q (record ~time ~seq)) times;
      let rec sorted = function
        | (t1, s1, _) :: ((t2, s2, _) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && s1 < s2)) && sorted rest
        | _ -> true
      in
      let out = drain_queue q in
      List.length out = List.length times && sorted out)

(* The indexed heap against a sorted list of (time, seq) keys.  A random
   program pushes idle records, removes any resident one, takes the
   root, and re-arms a record (out if resident, new key, back in), as
   [Sim] does.  After every operation the root's key is the model's
   least, and the resident records' [where] fields name the slots
   0 .. length - 1, one record each, so every record knows its own
   slot. *)
type queue_op = Push of int * int | Remove of int | Take | Rearm of int * int

let gen_queue_ops =
  let open QCheck.Gen in
  list_size (int_range 1 200)
    (frequency
       [
         (4, map2 (fun i t -> Push (i, t)) (int_bound 31) (int_bound 50));
         (2, map (fun i -> Remove i) (int_bound 31));
         (2, return Take);
         (2, map2 (fun i t -> Rearm (i, t)) (int_bound 31) (int_bound 50));
       ])

let print_queue_op = function
  | Push (i, t) -> Printf.sprintf "push %d@%d" i t
  | Remove i -> Printf.sprintf "remove %d" i
  | Take -> "take"
  | Rearm (i, t) -> Printf.sprintf "rearm %d@%d" i t

let prop_queue_model =
  QCheck.Test.make ~name:"indexed heap matches a sorted-list model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_queue_op ops))
       gen_queue_ops)
    (fun ops ->
      let q = Event_queue.create () in
      let recs = Array.init 32 (fun _ -> Timer_wheel.make ~fn:ignore) in
      let next_seq = ref 0 in
      let model = ref [] in
      let resident tm = tm.Timer_wheel.where <> Timer_wheel.w_none in
      let key tm = (tm.Timer_wheel.deadline, tm.Timer_wheel.seq) in
      let arm tm time =
        tm.Timer_wheel.deadline <- time;
        tm.Timer_wheel.seq <- !next_seq;
        incr next_seq;
        Event_queue.push q tm;
        model := List.merge compare [ key tm ] !model
      in
      let out tm =
        Event_queue.remove q tm;
        model := List.filter (( <> ) (key tm)) !model
      in
      let consistent () =
        let n = Event_queue.length q in
        let slots =
          Array.to_list recs |> List.filter resident
          |> List.map (fun tm -> Timer_wheel.w_heap - tm.Timer_wheel.where)
          |> List.sort compare
        in
        slots = List.init n Fun.id
        && List.length !model = n
        &&
        match !model with
        | [] -> Event_queue.min_time q = max_int
        | (t, s) :: _ -> Event_queue.min_time q = t && Event_queue.peek_seq q = s
      in
      List.for_all
        (fun op ->
          (match op with
          | Push (i, t) -> if not (resident recs.(i)) then arm recs.(i) t
          | Remove i -> if resident recs.(i) then out recs.(i)
          | Take -> (
              match !model with
              | [] -> ()
              | k :: rest ->
                  let tm = Event_queue.take q in
                  if key tm <> k || resident tm then failwith "take";
                  model := rest)
          | Rearm (i, t) ->
              if resident recs.(i) then out recs.(i);
              arm recs.(i) t);
          consistent ())
        ops
      && List.for_all (fun k -> key (Event_queue.take q) = k) !model)

(* ---------- Sim ---------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.after sim 100 (fun () -> log := ("b", Sim.now sim) :: !log));
  ignore (Sim.after sim 50 (fun () -> log := ("a", Sim.now sim) :: !log));
  ignore
    (Sim.after sim 50 (fun () ->
         (* Events scheduled from handlers run later the same instant. *)
         ignore (Sim.after sim 0 (fun () -> log := ("a2", Sim.now sim) :: !log))));
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "order" [ ("a", 50); ("a2", 50); ("b", 100) ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.after sim 10 (fun () -> fired := true) in
  Sim.stop sim h;
  Sim.run sim;
  check_bool "cancelled event did not fire" false !fired;
  check_bool "handle reports disarmed" false (Sim.armed h);
  (* On the heap too, and the run never visits the cancelled deadline. *)
  let sim = Sim.create ~wheel:false () in
  Sim.stop sim (Sim.after sim 10 (fun () -> fired := true));
  Sim.run sim;
  check_bool "cancelled heap event did not fire" false !fired;
  check_int "clock unmoved by it" 0 (Sim.now sim)

(* A cancelled event is gone at once: [step] never lands on its deadline,
   and [pending] never counts it. *)
let test_step_fires_live () =
  let sim = Sim.create ~wheel:false () in
  let fired = ref 0 in
  let h = Sim.after sim 10 (fun () -> incr fired) in
  Sim.stop sim h;
  check_bool "nothing live to step" false (Sim.step sim);
  check_int "clock unmoved" 0 (Sim.now sim);
  let h = Sim.after sim 10 (fun () -> incr fired) in
  ignore (Sim.after sim 20 (fun () -> incr fired));
  Sim.stop sim h;
  check_bool "stepped" true (Sim.step sim);
  check_int "fired the live event" 1 !fired;
  check_int "at its deadline" 20 (Sim.now sim);
  (* A deadline past the wheel's horizon lives on the heap. *)
  let sim = Sim.create () in
  let far = Sim.after sim (Simtime.s 12.) (fun () -> incr fired) in
  Sim.stop sim far;
  check_bool "cancelled far timer not stepped" false (Sim.step sim);
  check_int "clock unmoved by it" 0 (Sim.now sim)

let test_pending_live () =
  List.iter
    (fun wheel ->
      let sim = Sim.create ~wheel () in
      let hs =
        List.map
          (fun d -> Sim.after sim d ignore)
          [ 0; 10; Simtime.us 100.; Simtime.s 12. ]
      in
      check_int "all pending" 4 (Sim.pending sim);
      List.iter (Sim.stop sim) hs;
      check_int "none pending once stopped" 0 (Sim.pending sim);
      List.iter (fun h -> Sim.rearm sim h 5) hs;
      Sim.stop sim (List.hd hs);
      check_int "re-armed, one stopped" 3 (Sim.pending sim);
      Sim.run sim;
      check_int "drained" 0 (Sim.pending sim))
    [ false; true ]

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
  ignore (Sim.after sim 100 (fun () -> ()));
  Sim.run sim;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Sim.after: time 50ns is in the past (now 100ns)")
    (fun () -> ignore (Sim.after sim (-50) (fun () -> ())))

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

(* The CPU's entry points with the sites the host helpers default to. *)
let execute cpu ~proc ~mode d k =
  Cpu.execute cpu ~proc ~mode ~site:Cpu.Other ~csum:0 d k

let execute_intr cpu d k = Cpu.execute_intr cpu ~site:Cpu.Intr ~csum:0 d k

let test_cpu_serializes () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"host" ~shard_cell:(ref 0) ~shard:0 in
  let done_at = ref [] in
  execute cpu ~proc:"p" ~mode:Cpu.User 100 (fun () ->
      done_at := Sim.now sim :: !done_at);
  execute cpu ~proc:"p" ~mode:Cpu.User 50 (fun () ->
      done_at := Sim.now sim :: !done_at);
  Sim.run sim;
  Alcotest.(check (list int)) "sequential completion" [ 150; 100 ] !done_at;
  check_int "user time charged" 150 (Cpu.charged cpu ~proc:"p" ~mode:Cpu.User)

let test_cpu_interrupt_priority () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"host" ~shard_cell:(ref 0) ~shard:0 in
  let order = ref [] in
  execute cpu ~proc:"a" ~mode:Cpu.User 100 (fun () ->
      order := "a" :: !order);
  execute cpu ~proc:"b" ~mode:Cpu.User 100 (fun () ->
      order := "b" :: !order);
  (* Interrupt raised while [a] runs: must execute before [b]. *)
  ignore
    (Sim.after sim 10 (fun () ->
         execute_intr cpu 5 (fun () -> order := "intr" :: !order)));
  Sim.run sim;
  Alcotest.(check (list string)) "intr preempts queue" [ "b"; "intr"; "a" ]
    !order

let test_cpu_interrupt_mischarge () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"host" ~shard_cell:(ref 0) ~shard:0 in
  Cpu.set_idle_proc cpu "util";
  (* Interrupt while idle: charged to util as system time (the paper's
     methodology hinges on this). *)
  execute_intr cpu 40 (fun () -> ());
  (* Interrupt while ttcp runs: charged to ttcp. *)
  ignore
    (Sim.after sim 100 (fun () ->
         execute cpu ~proc:"ttcp" ~mode:Cpu.User 100 (fun () -> ());
         execute_intr cpu 7 (fun () -> ())));
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
      let cpu = Cpu.create ~sim ~name:"c" ~shard_cell:(ref 0) ~shard:0 in
      let total = ref 0 in
      List.iteri
        (fun i (kind, d) ->
          total := !total + d;
          match kind with
          | 0 -> execute cpu ~proc:"a" ~mode:Cpu.User d (fun () -> ())
          | 1 -> execute cpu ~proc:"b" ~mode:Cpu.Sys d (fun () -> ())
          | _ ->
              ignore
                (Sim.after sim (i * 7) (fun () ->
                     execute_intr cpu d (fun () -> ()))))
        jobs;
      Sim.run sim;
      Cpu.busy cpu = !total)

let test_cpu_zero_duration () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"host" ~shard_cell:(ref 0) ~shard:0 in
  let hits = ref 0 in
  for _ = 1 to 5 do
    execute cpu ~proc:"p" ~mode:Cpu.Sys 0 (fun () -> incr hits)
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
  let cpu = Cpu.create ~sim ~name:"ring" ~shard_cell:(ref 0) ~shard:0 in
  Cpu.set_idle_proc cpu "util";
  let log = ref [] in
  let note s () = log := s :: !log in
  let dur i = 10 + (i mod 7) in
  let proc i = if i mod 2 = 0 then "a" else "b" in
  (* Raised on the idle CPU: runs at once, charged to the soaker. *)
  execute_intr cpu 50 (note "x0");
  for i = 0 to 120 do
    let k () =
      note (Printf.sprintf "n%d" i) ();
      if i >= 1 && i <= 40 then begin
        execute cpu ~proc:"c" ~mode:Cpu.Sys 5
          (note (Printf.sprintf "m%d" i));
        execute cpu ~proc:"c" ~mode:Cpu.Sys 5
          (note (Printf.sprintf "p%d" i))
      end;
      if i > 0 && i mod 25 = 0 then
        (* Raised while n_i is current: charged to n_i's process. *)
        execute_intr cpu 4 (note (Printf.sprintf "y%d" i))
    in
    if i mod 3 = 0 then
      Cpu.execute cpu ~proc:(proc i) ~mode:Cpu.User ~site:Cpu.Header ~csum:2
        (dur i) k
    else execute cpu ~proc:(proc i) ~mode:Cpu.User (dur i) k;
    if i mod 10 = 0 then
      (* Raised while x0 runs: charged to x0's victim, the soaker. *)
      execute_intr cpu 3 (note (Printf.sprintf "x%d" (1 + (i / 10))))
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

(* A resource's job record for these tests: an id, and a payload the
   completion must let go of. *)
type job = { mutable id : int; mutable payload : Bytes.t }

let blank_job () = { id = 0; payload = Bytes.empty }

(* 100 holds queue behind the first and 30 more are taken from inside
   the completion: FIFO through growth and wrap-around, each completion
   handed its own job. *)
let test_resource_ring_order () =
  let sim = Sim.create () in
  let r = Resource.create ~sim blank_job in
  let log = ref [] in
  Resource.set_finished r (fun j ->
      let i = j.id in
      log := i :: !log;
      if i < 30 then (Resource.acquire r 2).id <- 1000 + i);
  for i = 0 to 99 do
    (Resource.acquire r (1 + (i mod 5))).id <- i
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

(* Builds the payload in its own frame, so only the queue can keep it
   alive once the submission returns. *)
let[@inline never] submit_tracked submit w =
  let payload = Bytes.create 16 in
  Weak.set w 0 (Some payload);
  submit payload

let test_ring_drops_continuations () =
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"weak" ~shard_cell:(ref 0) ~shard:0 in
  let res = Resource.create ~sim blank_job in
  Resource.set_finished res (fun j ->
      ignore (Sys.opaque_identity (Bytes.length j.payload));
      j.payload <- Bytes.empty);
  let wc = Weak.create 1 and wr = Weak.create 1 in
  execute cpu ~proc:"p" ~mode:Cpu.Sys 100 ignore;
  submit_tracked
    (fun p ->
      execute cpu ~proc:"p" ~mode:Cpu.Sys 1 (fun () ->
          ignore (Sys.opaque_identity (Bytes.length p))))
    wc;
  ignore (Resource.acquire res 100);
  submit_tracked (fun p -> (Resource.acquire res 1).payload <- p) wr;
  check_bool "cpu continuation queued" true (Weak.check wc 0);
  check_bool "resource job queued" true (Weak.check wr 0);
  Sim.run sim;
  Gc.full_major ();
  check_bool "cpu continuation released" false (Weak.check wc 0);
  check_bool "resource job payload released" false (Weak.check wr 0);
  (* Both queues stay live across the collection. *)
  check_int "cpu busy" 101 (Cpu.busy cpu);
  check_int "resource held" 101 (Resource.busy_time res)

(* Queueing work allocates nothing: with one preallocated continuation,
   10,000 CPU submissions into a warmed-up ring average under one word
   each, and 10,000 resource holds, each filling its job record in
   place, take 0 words. *)
let test_ring_alloc_budget () =
  let n = 10_000 in
  let sim = Sim.create () in
  let cpu = Cpu.create ~sim ~name:"budget" ~shard_cell:(ref 0) ~shard:0 in
  let res = Resource.create ~sim blank_job in
  let count = ref 0 in
  let k () = incr count in
  Resource.set_finished res (fun _ -> incr count);
  (* A long first item keeps each busy, so the loop only queues. *)
  let d i = if i = 1 then 1_000 else 1 in
  let drain () = Sim.run sim in
  let cpu_words =
    (Alloc_budget.measure n ~drain ~submit:(fun i ->
         execute cpu ~proc:"p" ~mode:Cpu.Sys (d i) k))
      .Alloc_budget.submit
  in
  let hold_words =
    (Alloc_budget.measure n ~drain ~submit:(fun i ->
         (Resource.acquire res (d i)).id <- i))
      .Alloc_budget.submit
  in
  check_int "every item completed" (4 * n) !count;
  check_bool
    (Printf.sprintf "%.2f words per CPU item" cpu_words)
    true (cpu_words < 1.);
  Alcotest.(check (float 0.)) "words per resource hold" 0. hold_words

(* Values pushed with non-decreasing due times, ties included, arrive in
   push order at their due times through ring growth; a push made from
   inside a delivery joins the tail.  Once the ring has grown, a push
   allocates nothing: 10,000 pushes 1 us apart (so the one that arms the
   timer lands on the wheel, which schedules without allocating) take
   0 words. *)
let test_delay_line () =
  let sim = Sim.create () in
  let l = Delay_line.create ~sim ~empty:(-1) in
  let log = ref [] in
  Delay_line.set_deliver l (fun v ->
      log := (Sim.now sim, v) :: !log;
      if v = 7 then Delay_line.push l (Simtime.add (Sim.now sim) 1_000) 100);
  for i = 0 to 39 do
    Delay_line.push l (10 * (i / 2)) i
  done;
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "fifo at the due times"
    (List.init 40 (fun i -> (10 * (i / 2), i)) @ [ (1_030, 100) ])
    (List.rev !log);
  let n = 10_000 and got = ref 0 in
  Delay_line.set_deliver l (fun _ -> incr got);
  let w =
    Alloc_budget.measure n
      ~submit:(fun i ->
        Delay_line.push l (Simtime.add (Sim.now sim) (1_000 * i)) i)
      ~drain:(fun () -> Sim.run sim)
  in
  check_int "every value delivered" (2 * n) !got;
  Alcotest.(check (float 0.)) "words per push" 0. w.submit

(* The run loop allocates nothing per instant.  Under [~wheel:false]
   every deadline is a heap entry, and a reusable timer that re-arms
   itself with zero delay fires once per heap-only run-loop pass: the
   heap holds the record itself, so an event costs no words, and
   neither does a [Sim.run] call. *)
let test_heap_drain_alloc_budget () =
  let n = 10_000 in
  let sim = Sim.create ~wheel:false () in
  let left = ref 0 and fired = ref 0 in
  let tm = Sim.timer sim ignore in
  Sim.set_fn tm (fun () ->
      incr fired;
      if !left > 0 then begin
        decr left;
        Sim.rearm sim tm Simtime.zero
      end);
  let { Alloc_budget.submit; drain } =
    Alloc_budget.measure 1
      ~submit:(fun _ ->
        left := n - 1;
        Sim.rearm sim tm Simtime.zero)
      ~drain:(fun () -> Sim.run sim)
  in
  check_int "every re-arm fired" (2 * n) !fired;
  Alcotest.(check (float 0.))
    "words per zero-delay heap event" 0.
    ((submit +. drain) /. float_of_int n)

(* Moving and stopping heap-resident timers takes each record out of the
   heap in place: no entry, box or tombstone is built. *)
let test_heap_rearm_stop_alloc_budget () =
  let sim = Sim.create ~wheel:false () in
  let tms = Array.init 64 (fun _ -> Sim.timer sim ignore) in
  Array.iteri (fun i tm -> Sim.rearm sim tm (1_000 + (i * 7919 mod 4096))) tms;
  let w =
    Alloc_budget.measure 10_000
      ~submit:(fun i ->
        let tm = tms.(i land 63) in
        Sim.rearm sim tm (1_000 + (i * 104_729 mod 65_536));
        Sim.stop sim tms.((i + 17) land 63);
        Sim.rearm sim tms.((i + 17) land 63) (500 + (i land 1023)))
      ~drain:ignore
  in
  check_int "every timer still resident" 64 (Sim.pending sim);
  Alcotest.(check (float 0.)) "words per re-arm, stop and re-arm" 0. w.submit

(* A timer is one record built once: 7 words (6 fields and the header),
   not a dummy block plus the record it is copied into. *)
let test_fresh_timer_words () =
  let sim = Sim.create () in
  let w =
    Alloc_budget.measure 100
      ~submit:(fun _ -> ignore (Sim.timer sim ignore : Sim.handle))
      ~drain:ignore
  in
  Alcotest.(check (float 0.)) "words per fresh timer" 7. w.submit

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
          QCheck_alcotest.to_alcotest prop_queue_model;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "step fires a live event or returns false"
            `Quick test_step_fires_live;
          Alcotest.test_case "pending counts only live events" `Quick
            test_pending_live;
          Alcotest.test_case "past rejected" `Quick test_sim_past_raises;
          Alcotest.test_case "stuck guard" `Quick test_sim_stuck_guard;
          Alcotest.test_case "fresh timer is one record" `Quick
            test_fresh_timer_words;
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
          Alcotest.test_case "heap drain allocation budget" `Quick
            test_heap_drain_alloc_budget;
          Alcotest.test_case "heap re-arm and stop allocate nothing" `Quick
            test_heap_rearm_stop_alloc_budget;
          Alcotest.test_case "delay line fifo and budget" `Quick
            test_delay_line;
        ] );
      ( "rng+stats",
        [
          Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
          QCheck_alcotest.to_alcotest prop_rng_bounds;
        ] );
    ]
