(* Timer-core tests: the wheel-backed scheduler must be observationally
   identical to the heap-only scheduler.

   The qcheck oracle runs random schedule/cancel/re-arm programs against
   [Sim.create ~wheel:true] and [Sim.create ~wheel:false] and requires
   byte-identical (id, time) firing logs — same events, same instants,
   same same-instant order.  Unit tests pin down the wheel's edges:
   cascade boundaries, zero-delay events, cancel-inside-handler,
   far-future overflow into the heap, a crowded slot sorted in place,
   and the heap's removal of a cancelled event. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tick = 512 (* 2^9 ns: wheel level-0 granularity *)
let l1_span = tick * 256 (* 131072 ns: one full level-0 rotation *)
let l2_span = l1_span * 256 (* 33554432 ns: one level-1 rotation *)
let horizon = l2_span * 256 (* 8589934592 ns: wheel capacity *)

(* ---------- equivalence oracle ---------- *)

(* A program is an array of nodes, each owning one reusable timer.  When
   node [i] fires it logs (i, now), re-arms some strictly-later nodes,
   stops some strictly-later nodes, and spawns some one-shot [Sim.after]
   events (logged as (1000*(i+1)+k, now)).  Restricting re-arm/stop
   targets to j > i makes every program terminate. *)
type node = {
  root : int; (* initial arm delay, or -1 *)
  arms : (int * int) list; (* (node j > i, delay) *)
  stops : int list; (* node j > i *)
  spawns : int list; (* one-shot delays *)
}

let run_program ~wheel nodes =
  let sim = Sim.create ~wheel () in
  let n = Array.length nodes in
  let log = ref [] in
  let tms = Array.init n (fun _ -> Sim.timer sim ignore) in
  Array.iteri
    (fun i nd ->
      Sim.set_fn tms.(i) (fun () ->
          log := (i, Sim.now sim) :: !log;
          List.iter (fun (j, d) -> Sim.rearm sim tms.(j) d) nd.arms;
          List.iter (fun j -> Sim.stop sim tms.(j)) nd.stops;
          List.iteri
            (fun k d ->
              ignore
                (Sim.after sim d (fun () ->
                     log := ((1000 * (i + 1)) + k, Sim.now sim) :: !log)))
            nd.spawns))
    nodes;
  Array.iteri
    (fun i nd -> if nd.root >= 0 then Sim.rearm sim tms.(i) nd.root)
    nodes;
  Sim.run sim;
  (List.rev !log, Sim.events_fired sim)

(* Delays that stress every placement class: zero (heap), sub-tick,
   level boundaries, mid-level, and beyond the horizon (heap). *)
let delay_pool =
  [
    0; 1; 7; tick - 1; tick; tick + 1; 4096; 100_000; l1_span - 1; l1_span;
    l1_span + 1; 1_000_000; l2_span - 1; l2_span; l2_span + 1; 500_000_000;
    horizon - 1; horizon; horizon + tick; 12_000_000_000;
  ]

let gen_program =
  let open QCheck.Gen in
  int_range 2 12 >>= fun n ->
  let gen_node i =
    oneofl delay_pool >>= fun d ->
    bool >>= fun is_root ->
    (if i + 1 < n then
       list_size (int_bound 2) (pair (int_range (i + 1) (n - 1)) (oneofl delay_pool))
     else return [])
    >>= fun arms ->
    (if i + 1 < n then list_size (int_bound 1) (int_range (i + 1) (n - 1))
     else return [])
    >>= fun stops ->
    list_size (int_bound 2) (oneofl delay_pool) >>= fun spawns ->
    return { root = (if is_root || i = 0 then d else -1); arms; stops; spawns }
  in
  let rec build i acc =
    if i = n then return (Array.of_list (List.rev acc))
    else gen_node i >>= fun nd -> build (i + 1) (nd :: acc)
  in
  build 0 []

let print_program nodes =
  let node_str i nd =
    Printf.sprintf "%d{root=%d;arms=[%s];stops=[%s];spawns=[%s]}" i nd.root
      (String.concat ";"
         (List.map (fun (j, d) -> Printf.sprintf "%d@%d" j d) nd.arms))
      (String.concat ";" (List.map string_of_int nd.stops))
      (String.concat ";" (List.map string_of_int nd.spawns))
  in
  String.concat " " (Array.to_list (Array.mapi node_str nodes))

let prop_wheel_heap_equivalent =
  QCheck.Test.make
    ~name:"wheel and heap schedulers fire byte-identically"
    ~count:300
    (QCheck.make ~print:print_program gen_program)
    (fun nodes ->
      let wlog, wfired = run_program ~wheel:true nodes in
      let hlog, hfired = run_program ~wheel:false nodes in
      wlog = hlog && wfired = hfired)

(* ---------- unit: cascade boundaries ---------- *)

let test_cascade_boundaries () =
  let sim = Sim.create () in
  let log = ref [] in
  let arm d = ignore (Sim.after sim d (fun () -> log := d :: !log)) in
  let ds =
    [
      l1_span - 1; l1_span; l1_span + 1; (2 * l1_span) - 1; 2 * l1_span;
      l2_span - 1; l2_span; l2_span + 1; l2_span + l1_span; tick; tick + 1;
    ]
  in
  List.iter arm ds;
  Sim.run sim;
  Alcotest.(check (list int))
    "fires in deadline order across level boundaries"
    (List.sort compare ds) (List.rev !log);
  check_int "clock at last deadline" (l2_span + l1_span) (Sim.now sim)

let test_same_tick_distinct_deadlines () =
  (* Two deadlines in the same level-0 slot must still fire at their
     exact (un-rounded) times, in deadline order. *)
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.after sim (tick + 5) (fun () -> log := (5, Sim.now sim) :: !log));
  ignore (Sim.after sim (tick + 1) (fun () -> log := (1, Sim.now sim) :: !log));
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "exact deadlines inside one slot"
    [ (1, tick + 1); (5, tick + 5) ]
    (List.rev !log)

(* ---------- unit: zero-delay events ---------- *)

let test_zero_delay () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.after sim tick (fun () -> log := ("wheel", Sim.now sim) :: !log));
  ignore (Sim.after sim 0 (fun () -> log := ("z1", Sim.now sim) :: !log));
  ignore
    (Sim.after sim 0 (fun () ->
         (* Scheduled from a handler at the same instant: runs in the
            next same-instant batch, after everything already queued. *)
         ignore (Sim.after sim 0 (fun () -> log := ("z3", Sim.now sim) :: !log));
         log := ("z2", Sim.now sim) :: !log));
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "zero-delay order, then wheel timer"
    [ ("z1", 0); ("z2", 0); ("z3", 0); ("wheel", tick) ]
    (List.rev !log)

(* ---------- unit: cancel inside a same-instant handler ---------- *)

let test_cancel_inside_handler () =
  (* Both timers live in the same wheel slot and expire in the same
     batch; the first handler cancels the second, which must not fire
     even though it was already sorted into the ready list. *)
  let sim = Sim.create () in
  let fired = ref false in
  let victim = Sim.timer sim (fun () -> fired := true) in
  ignore (Sim.after sim tick (fun () -> Sim.stop sim victim));
  Sim.rearm sim victim tick;
  (* The canceller was scheduled first, so it runs first in the
     same-instant batch and unlinks the victim from the ready list. *)
  Sim.run sim;
  check_bool "same-batch cancelled timer did not fire" false !fired;
  (* Heap twin: zero-delay events at the same instant. *)
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.after sim 0 (fun () -> ()));
  let h = ref None in
  ignore (Sim.after sim 0 (fun () -> Option.iter (Sim.stop sim) !h));
  h := Some (Sim.after sim 0 (fun () -> fired := true));
  Sim.run sim;
  check_bool "same-batch cancelled heap event did not fire" false !fired

(* ---------- unit: far-future overflow into the heap ---------- *)

let test_far_future_overflow () =
  let sim = Sim.create () in
  let log = ref [] in
  let far = 12_000_000_000 in
  (* > 8.59 s horizon *)
  ignore (Sim.after sim far (fun () -> log := ("far", Sim.now sim) :: !log));
  ignore (Sim.after sim tick (fun () -> log := ("near", Sim.now sim) :: !log));
  check_int "both pending" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "near (wheel) then far (heap), exact times"
    [ ("near", tick); ("far", far) ]
    (List.rev !log)

(* ---------- unit: reusable timer lifecycle ---------- *)

let test_rearm_moves_deadline () =
  let sim = Sim.create () in
  let times = ref [] in
  let tm = Sim.timer sim ignore in
  Sim.set_fn tm (fun () -> times := Sim.now sim :: !times);
  Sim.rearm sim tm (Simtime.ms 1.);
  check_bool "armed" true (Sim.armed tm);
  Sim.rearm sim tm (Simtime.ms 2.);
  Sim.run sim;
  Alcotest.(check (list int)) "moved, fired once" [ Simtime.ms 2. ] !times;
  check_bool "disarmed after fire" false (Sim.armed tm)

let test_stop_prevents_fire () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let tm = Sim.timer sim (fun () -> incr fired) in
  Sim.rearm sim tm (Simtime.ms 1.);
  Sim.stop sim tm;
  check_bool "disarmed" false (Sim.armed tm);
  Sim.run sim;
  check_int "never fired" 0 !fired;
  (* Stopped timers re-arm cleanly. *)
  Sim.rearm sim tm (Simtime.ms 1.);
  Sim.run sim;
  check_int "re-armed after stop fires" 1 !fired

let test_periodic () =
  let sim = Sim.create () in
  let count = ref 0 in
  let tm = ref None in
  let p =
    Sim.periodic sim ~every:(Simtime.ms 1.) (fun () ->
        incr count;
        if !count = 5 then Option.iter (fun t -> Sim.stop sim t) !tm)
  in
  tm := Some p;
  Sim.run sim ~until:(Simtime.ms 100.);
  check_int "fired exactly 5 times" 5 !count;
  check_int "clock ran to the limit" (Simtime.ms 100.) (Sim.now sim)

(* ---------- unit: a crowded slot sorts in place ---------- *)

(* 500 timers in one level-0 slot, armed in decreasing deadline order
   with pairs of equal deadlines: expiry sorts the slot into exact
   (deadline, seq) order on the records' own links, allocating
   nothing. *)
let test_crowded_slot () =
  let sim = Sim.create () in
  let n = 500 in
  let base = 10 * tick in
  let order = Array.make n (-1) and k = ref 0 in
  let tms =
    Array.init n (fun i ->
        let tm = Sim.timer sim ignore in
        Sim.set_fn tm (fun () ->
            order.(!k) <- i;
            incr k);
        tm)
  in
  Array.iteri (fun i tm -> Sim.rearm sim tm (base + ((n - 1 - i) / 2))) tms;
  let w0 = Gc.minor_words () in
  Sim.run sim;
  let words = Gc.minor_words () -. w0 in
  (* Deadline first; within a pair, the earlier arm (lower seq). *)
  let expected =
    List.sort
      (fun a b -> compare ((n - 1 - a) / 2, a) ((n - 1 - b) / 2, b))
      (List.init n Fun.id)
  in
  Alcotest.(check (list int)) "exact (deadline, seq) order" expected
    (Array.to_list order);
  Alcotest.(check (float 0.)) "words to collect and fire the slot" 0. words

(* ---------- unit: cancel removes at once ---------- *)

let test_cancel_removes () =
  let sim = Sim.create ~wheel:false () in
  let log = ref [] in
  let hs =
    List.init 100 (fun i ->
        Sim.after sim (Simtime.ms (float_of_int (i + 1))) (fun () ->
            log := i :: !log))
  in
  check_int "all resident" 100 (Sim.pending sim);
  List.iteri (fun i h -> if i < 60 then Sim.stop sim h) hs;
  check_int "stopped events leave at once" 40 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list int))
    "survivors fire in order" (List.init 40 (fun i -> 60 + i)) (List.rev !log);
  check_int "drained" 0 (Sim.pending sim)

(* ---------- unit: same-instant seq fence ---------- *)

(* A heap-only batch at one instant fires what was queued when it began;
   an event a handler adds for the same instant waits for the next
   batch, behind every event queued before it. *)
let test_same_instant_fence () =
  let sim = Sim.create ~wheel:false () in
  let log = ref [] in
  let note s () = log := s :: !log in
  ignore (Sim.after sim 10 (fun () ->
      note "a" ();
      ignore (Sim.after sim 0 (note "late"))));
  ignore (Sim.after sim 10 (note "b"));
  ignore (Sim.after sim 10 (note "c"));
  ignore (Sim.after sim 20 (note "d"));
  Sim.run sim;
  Alcotest.(check (list string))
    "batch, then its late joiner, then the next instant"
    [ "a"; "b"; "c"; "late"; "d" ] (List.rev !log)

let () =
  Alcotest.run "timer"
    [
      ( "oracle",
        [ QCheck_alcotest.to_alcotest prop_wheel_heap_equivalent ] );
      ( "wheel",
        [
          Alcotest.test_case "cascade boundaries" `Quick
            test_cascade_boundaries;
          Alcotest.test_case "exact sub-slot deadlines" `Quick
            test_same_tick_distinct_deadlines;
          Alcotest.test_case "zero-delay events" `Quick test_zero_delay;
          Alcotest.test_case "cancel inside handler" `Quick
            test_cancel_inside_handler;
          Alcotest.test_case "far-future overflow" `Quick
            test_far_future_overflow;
          Alcotest.test_case "crowded slot sorts in place" `Quick
            test_crowded_slot;
        ] );
      ( "reusable",
        [
          Alcotest.test_case "rearm moves deadline" `Quick
            test_rearm_moves_deadline;
          Alcotest.test_case "stop prevents fire" `Quick
            test_stop_prevents_fire;
          Alcotest.test_case "periodic" `Quick test_periodic;
        ] );
      ( "heap",
        [
          Alcotest.test_case "cancel removes at once" `Quick
            test_cancel_removes;
          Alcotest.test_case "same-instant seq fence" `Quick
            test_same_instant_fence;
        ] );
    ]
