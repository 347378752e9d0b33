(* Closed-loop benchmark driver for the nectar simulator.

   One process runs one workload in fixed-size rounds until the requested
   wall time has passed.  Every round builds a fresh testbed (set-up),
   drives a closed loop of socket operations through it (the measured
   phase: the next operation starts only when the previous one completed),
   then checks the payload, the cross-layer conservation laws and, for
   [churn], the drain back to baseline.  All rounds of a run use the same
   seed, so every deterministic metric must repeat exactly from round to
   round; a mismatch fails the run.

   The layers are read from outside only: through the stats records and
   Obs registry entries they already export, the Obs_ledger touch ledger
   and Gc.  The driver times its own calls into the layers, and with
   [--trace 1] it also records spans around them.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--small]
   The last line of standard output is the JSON result; traced runs also
   write their files to perfbench/out/. *)

let wall = Unix.gettimeofday

(* ---------- samples ---------- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let a = Array.sub t.a 0 t.n in
    Array.sort compare a;
    a

  (* Nearest-rank percentile of a sorted array; 0 when empty. *)
  let pct a q =
    let n = Array.length a in
    if n = 0 then 0
    else
      let r = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (r - 1)))
end

(* The highest of these percentiles that still has at least 10 samples
   beyond it. *)
let tail_pct n =
  List.find_opt
    (fun q -> float_of_int n *. (1. -. (q /. 100.)) >= 10.)
    [ 99.99; 99.9; 99.; 90. ]
  |> Option.value ~default:50.

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---------- spans (traced rounds only) ---------- *)

(* Spans of the current traced round live in preallocated arrays and are
   written out once, at the end of the run.  A span has a simulated
   start/end, and three wall stamps: the call, the call's return, and its
   completion (the continuation).  Spans of one request share [id]. *)
module Span = struct
  let create = 0
  let establish = 1
  let write = 2
  let read = 3
  let verify = 4
  let drain = 5
  let request = 6

  let kinds =
    [| "create"; "establish"; "write"; "read"; "verify"; "drain"; "request" |]

  let cap = 1 lsl 18

  type buf = {
    kind : int array;
    id : int array;
    sim0 : int array;
    sim1 : int array;
    w0 : float array;
    wret : float array;
    w1 : float array;
    mutable n : int;
    mutable dropped : int;
    mutable origin : float;
  }

  let buf =
    lazy
      {
        kind = Array.make cap 0;
        id = Array.make cap 0;
        sim0 = Array.make cap 0;
        sim1 = Array.make cap 0;
        w0 = Array.make cap 0.;
        wret = Array.make cap 0.;
        w1 = Array.make cap 0.;
        n = 0;
        dropped = 0;
        origin = 0.;
      }

  let recording = ref false

  let begin_round on =
    recording := on;
    if on then begin
      let b = Lazy.force buf in
      b.n <- 0;
      b.dropped <- 0;
      b.origin <- wall ()
    end

  let start kind ~id ~now =
    if not !recording then -1
    else
      let b = Lazy.force buf in
      if b.n >= cap then begin
        b.dropped <- b.dropped + 1;
        -1
      end
      else begin
        let i = b.n in
        b.n <- i + 1;
        b.kind.(i) <- kind;
        b.id.(i) <- id;
        b.sim0.(i) <- now;
        b.sim1.(i) <- now;
        let t = wall () in
        b.w0.(i) <- t;
        b.wret.(i) <- t;
        b.w1.(i) <- t;
        i
      end

  let returned i = if i >= 0 then (Lazy.force buf).wret.(i) <- wall ()

  let finish i ~now =
    if i >= 0 then begin
      let b = Lazy.force buf in
      b.sim1.(i) <- now;
      b.w1.(i) <- wall ()
    end

  (* Wall seconds spent inside the calls themselves (call to return) of
     the given kinds. *)
  let call_seconds kinds =
    if not !recording then 0.
    else
      let b = Lazy.force buf in
      let s = ref 0. in
      for i = 0 to b.n - 1 do
        if List.mem b.kind.(i) kinds then s := !s +. (b.wret.(i) -. b.w0.(i))
      done;
      !s

  let dump path =
    let b = Lazy.force buf in
    let oc = open_out path in
    for i = 0 to b.n - 1 do
      Printf.fprintf oc
        "{\"kind\":\"%s\",\"id\":%d,\"sim_start_ns\":%d,\"sim_end_ns\":%d,\"wall_start_s\":%.9f,\"wall_return_s\":%.9f,\"wall_end_s\":%.9f}\n"
        kinds.(b.kind.(i)) b.id.(i) b.sim0.(i) b.sim1.(i)
        (b.w0.(i) -. b.origin) (b.wret.(i) -. b.origin) (b.w1.(i) -. b.origin)
    done;
    close_out oc;
    (b.n, b.dropped)
end

(* ---------- the driver's calls into the layers ---------- *)

(* Wall time spent in the benchmark's own payload checks this round. *)
let verify_s = ref 0.

let checked ~now f =
  let sp = Span.start Span.verify ~id:0 ~now in
  let t = wall () in
  let ok = f () in
  verify_s := !verify_s +. (wall () -. t);
  Span.finish sp ~now;
  ok

type io = { sim : Sim.t; wlat : Samples.t; rlat : Samples.t }

let new_io sim = { sim; wlat = Samples.create (); rlat = Samples.create () }

let write io s region ~id k =
  let t0 = Sim.now io.sim in
  let sp = Span.start Span.write ~id ~now:t0 in
  Socket.write s region (fun () ->
      let t1 = Sim.now io.sim in
      Samples.add io.wlat (t1 - t0);
      Span.finish sp ~now:t1;
      k ());
  Span.returned sp

let read io s region ~exact ~id k =
  let t0 = Sim.now io.sim in
  let sp = Span.start Span.read ~id ~now:t0 in
  (if exact then Socket.read_exact else Socket.read) s region (fun n ->
      let t1 = Sim.now io.sim in
      Samples.add io.rlat (t1 - t0);
      Span.finish sp ~now:t1;
      k n);
  Span.returned sp

let run_to_quiet sim =
  Sim.run ~until:(Simtime.add (Sim.now sim) (Simtime.s 600.)) sim

let host (n : Testbed.node) = n.Testbed.stack.Netstack.host
let nodes tb = [ tb.Testbed.a; tb.Testbed.b ]

let cpus tb =
  List.concat_map
    (fun n -> Array.to_list (Array.map (fun sh -> sh.Shard.cpu) (Host.shards (host n))))
    (nodes tb)

let timed_create f =
  let sp = Span.start Span.create ~id:0 ~now:0 in
  let t = wall () in
  let tb = f () in
  let dt = wall () -. t in
  Span.finish sp ~now:0;
  (tb, dt)

(* Listen on B, connect from A, and step the simulation just until both
   sockets exist; later events stay queued for the measured phase. *)
let establish tb ~port ~paths =
  let sim = tb.Testbed.sim in
  let sp = Span.start Span.establish ~id:port ~now:(Sim.now sim) in
  let socks = ref None in
  Testbed.establish_stream tb ~port ~a_paths:paths ~b_paths:paths
    (fun sa sb -> socks := Some (sa, sb));
  while Option.is_none !socks && Sim.step sim do
    ()
  done;
  Span.finish sp ~now:(Sim.now sim);
  match !socks with
  | Some p -> p
  | None -> failwith "handshake did not complete"

(* The paper's ttcp+util utilization of one host over [elapsed], averaged
   over its shards' CPUs.  Accounting was reset and the util soaker
   installed when the window opened. *)
let host_util h ~elapsed =
  let shards = Host.shards h in
  Array.fold_left
    (fun acc sh ->
      acc
      +. (Measurement.of_cpu ~cpu:sh.Shard.cpu ~elapsed ~bytes:0)
           .Measurement.utilization)
    0. shards
  /. float_of_int (Array.length shards)

let busiest_util tb ~elapsed =
  List.fold_left (fun acc n -> Float.max acc (host_util (host n) ~elapsed)) 0.
    (nodes tb)

(* ---------- counters read from outside ---------- *)

let obs section name =
  match Obs.find ~section ~name with
  | Some (Obs.M_counter c) -> float_of_int (Obs.Counter.get c)
  | Some (Obs.M_gauge f) -> f ()
  | _ -> failwith (Printf.sprintf "Obs metric %s/%s is not registered" section name)

(* Cumulative counters, diffed across the measured phase. *)
let counters tb =
  let fi = float_of_int in
  let sum f = List.fold_left (fun acc n -> acc +. fi (f n)) 0. (nodes tb) in
  let cab f = sum (fun n -> f (Cab.stats n.Testbed.cab)) in
  let pipe f = sum (fun n -> f (Cab.rx_pipe_stats n.Testbed.cab)) in
  let drv f = sum (fun n -> f (Cab_driver.stats n.Testbed.driver)) in
  let _, promoted, major = Gc.counters () in
  let link = tb.Testbed.link in
  [
    ("engine.events", fi (Sim.events_fired tb.Testbed.sim));
    ("engine.wheel_scheduled", obs "sim" "wheel_scheduled");
    ( "engine.wheel_rejects",
      obs "sim" "wheel_near_rejects" +. obs "sim" "wheel_far_rejects" );
    ("engine.wheel_cascades", obs "sim" "wheel_cascades");
    ("engine.heap_compactions", obs "sim" "heap_compactions");
    ("gc.minor_words", Gc.minor_words ());
    ("gc.promoted_words", promoted);
    ("gc.major_words", major);
    ("engine.major_gcs", fi (Gc.quick_stat ()).Gc.major_collections);
    ("mbuf.pool_hits", fi (Mbuf.Pool.hit_count ()));
    ("mbuf.pool_misses", fi (Mbuf.Pool.miss_count ()));
    ("memory.bufpool_hits", fi (Bufpool.hit_count Bufpool.shared));
    ("memory.bufpool_misses", fi (Bufpool.miss_count Bufpool.shared));
    ("vm.pin_hits", obs "pin_cache" "hits");
    ("vm.pin_misses", obs "pin_cache" "misses");
    ("cab.sdma_bytes", cab (fun s -> s.Cab.sdma_bytes));
    ("cab.sdma_chains", cab (fun s -> s.Cab.sdma_chains));
    ("cab.interrupts", cab (fun s -> s.Cab.interrupts));
    ("cab.rx_pipe_posts", pipe (fun s -> s.Cab.rx_pipe_posts));
    ("cab.rx_pipe_overlap", pipe (fun s -> s.Cab.rx_pipe_overlap));
    ("cab.rx_pipe_stalls", pipe (fun s -> s.Cab.rx_pipe_stalls));
    ( "cab.netmem_failures",
      sum (fun n -> Netmem.failures (Cab.netmem n.Testbed.cab)) );
    ("driver.tx_uio_segments", drv (fun s -> s.Cab_driver.tx_uio_segments));
    ( "driver.tx_gather_fallbacks",
      drv (fun s -> s.Cab_driver.tx_gather_fallbacks) );
    ("driver.tx_staged_bytes", drv (fun s -> s.Cab_driver.tx_staged_bytes));
    ("driver.copyouts", drv (fun s -> s.Cab_driver.copyouts));
    ("driver.rx_copied_kernel", drv (fun s -> s.Cab_driver.rx_copied_kernel));
    ("link.bytes_carried", fi (Hippi_link.bytes_carried link));
    ("link.busy_a", fi (Hippi_link.busy_time link Hippi_link.A));
    ("link.busy_b", fi (Hippi_link.busy_time link Hippi_link.B));
    ("link.frames_dropped", fi (Hippi_link.frames_dropped link));
    ("tcp.retransmits", obs "tcp" "retransmits");
    ("tcp.rto_fires", obs "tcp" "rto_fires");
    ("tcp.csum_failures_rx", obs "tcp" "csum_failures_rx");
    ("tcp.conn.syn_rcvd", obs "conn" "syn_rcvd");
    ("tcp.conn.promoted", obs "conn" "promoted");
    ("tcp.conn.accepted", obs "conn" "accepted");
    ("tcp.conn.accept_overflow", obs "conn" "accept_overflow");
    ("tcp.conn.syn_timeouts", obs "conn" "syn_timeouts");
    ("tcp.conn.synack_rexmits", obs "conn" "synack_rexmits");
    ( "tcp.conn.sheds",
      obs "conn" "shed_pressure" +. obs "conn" "shed_accept"
      +. obs "conn" "shed_penalty" );
  ]

type window = {
  before : (string * float) list;
  ledger : Obs_ledger.snapshot;
  sim0 : Simtime.t;
  wall0 : float;
}

(* Open the measured phase: reset every CPU's books with the util soaker
   idling (the paper's methodology) and snapshot the counters. *)
let open_window tb =
  List.iter
    (fun cpu ->
      Cpu.reset_accounting cpu;
      Cpu.set_idle_proc cpu "util")
    (cpus tb);
  verify_s := 0.;
  let ledger = Obs_ledger.snapshot () in
  let before = counters tb in
  { before; ledger; sim0 = Sim.now tb.Testbed.sim; wall0 = wall () }

type closed = {
  delta : (string * float) list;
  touch : Obs_ledger.snapshot;
  run_s : float;
  verify : float;
  sites : (Cpu.site * Simtime.t) list;
}

let close_window tb w =
  let wall1 = wall () in
  let after = counters tb in
  {
    delta = List.map2 (fun (k, a) (_, b) -> (k, a -. b)) after w.before;
    touch = Obs_ledger.since w.ledger;
    run_s = wall1 -. w.wall0;
    verify = !verify_s;
    sites =
      List.map
        (fun s ->
          (s, List.fold_left (fun acc c -> acc + Cpu.site_charged c s) 0 (cpus tb)))
        Cpu.all_sites;
  }

(* The window's simulated figures, taken the moment the workload's last
   operation completes, so that teardown traffic stays out of them. *)
type moment = { elapsed : Simtime.t; util : float; link_util : float }

let moment tb w =
  let elapsed = Simtime.sub (Sim.now tb.Testbed.sim) w.sim0 in
  let busy side name =
    float_of_int (Hippi_link.busy_time tb.Testbed.link side) -. List.assoc name w.before
  in
  {
    elapsed;
    util = busiest_util tb ~elapsed;
    link_util =
      Float.max (busy Hippi_link.A "link.busy_a") (busy Hippi_link.B "link.busy_b")
      /. float_of_int (max 1 elapsed);
  }

(* ---------- one round's result ---------- *)

type round = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (* conservation and payload checks *)
  tail : string;  (* which percentile the latency tail is *)
}

(* The simulated end-to-end figures a workload computes itself. *)
type sim_figures = {
  goodput_mbit : float;
  at : moment;
  ops_per_s : float;
  latency : Samples.t;  (* simulated ns per operation *)
  payload : int;  (* application bytes written, for the per-byte ledger *)
}

let assemble (c : closed) ~io ~create_s ~setup_s ~drain_s ~(fig : sim_figures)
    ~poll ~policies =
  let d k = List.assoc k c.delta in
  let wall_s = c.run_s -. c.verify in
  let events = d "engine.events" in
  let per_event x = if events > 0. then x /. events else 0. in
  let promoted = d "gc.promoted_words" in
  let direct_major = d "gc.major_words" -. promoted in
  let alloc = d "gc.minor_words" +. direct_major in
  let rate hits misses = if hits +. misses > 0. then hits /. (hits +. misses) else 0. in
  let t = c.touch in
  let fi = float_of_int in
  let payload = fig.payload in
  let copies =
    (Obs_ledger.tx_copies_per_byte t ~payload
    +. Obs_ledger.rx_copies_per_byte t ~payload)
    /. 2.
  in
  let sums =
    (Obs_ledger.tx_sums_per_byte t ~payload +. Obs_ledger.rx_sums_per_byte t ~payload)
    /. 2.
  in
  let lat = Samples.sorted fig.latency in
  let us ns = fi ns /. 1e3 in
  let q = tail_pct (Array.length lat) in
  let wakeups, poll_events = poll in
  let policy f = fi (List.fold_left (fun acc p -> acc + f p) 0 policies) in
  let metrics =
    [
      ("wall_s", wall_s);
      ("setup_s", setup_s);
      ("alloc_mwords", alloc /. 1e6);
      ("sim_goodput_mbit", fig.goodput_mbit);
      ("sim_util", fig.at.util);
      ( "sim_efficiency_mbit",
        if fig.at.util > 0. then fig.goodput_mbit /. fig.at.util else 0. );
      ("copies_per_byte", copies);
      ("host_sums_per_byte", sums);
      ("sim_latency_p50_us", us (Samples.pct lat 50.));
      ("sim_latency_tail_us", us (Samples.pct lat q));
      ("sim_ops_per_s", fig.ops_per_s);
      ("engine.events", events);
      ("engine.events_per_s", if wall_s > 0. then events /. wall_s else 0.);
      ("engine.wheel_scheduled", d "engine.wheel_scheduled");
      ("engine.wheel_rejects", d "engine.wheel_rejects");
      ("engine.wheel_cascades", d "engine.wheel_cascades");
      ("engine.heap_compactions", d "engine.heap_compactions");
      ("engine.alloc_words_per_event", per_event alloc);
      ("engine.major_words_per_event", per_event direct_major);
      ("engine.promoted_words_per_event", per_event promoted);
      ("engine.major_gcs", d "engine.major_gcs");
    ]
    @ List.map
        (fun (s, ns) -> ("engine.cpu." ^ Cpu.site_name s ^ "_us", Simtime.to_us ns))
        c.sites
    @ [
        ("touch.host_tx_copy_bytes", fi (Obs_ledger.host_tx_copy_bytes t));
        ("touch.host_rx_copy_bytes", fi (Obs_ledger.host_rx_copy_bytes t));
        ("touch.host_tx_sum_bytes", fi (Obs_ledger.host_tx_sum_bytes t));
        ("touch.host_rx_sum_bytes", fi (Obs_ledger.host_rx_sum_bytes t));
        ( "touch.sdma_payload_bytes",
          fi (Obs_ledger.copied_bytes t Obs_ledger.Sdma_payload) );
        ("touch.copyout_bytes", fi (Obs_ledger.copied_bytes t Obs_ledger.Copyout));
        ("mbuf.pool_hit_rate", rate (d "mbuf.pool_hits") (d "mbuf.pool_misses"));
        ("mbuf.pool_misses", d "mbuf.pool_misses");
        ("mbuf.hwm", fi (Mbuf.Pool.hwm ()));
        ( "memory.bufpool_hit_rate",
          rate (d "memory.bufpool_hits") (d "memory.bufpool_misses") );
        ("memory.bufpool_misses", d "memory.bufpool_misses");
        ("vm.pin_hits", d "vm.pin_hits");
        ("vm.pin_misses", d "vm.pin_misses");
      ]
    @ List.map
        (fun k -> (k, d k))
        [
          "cab.sdma_bytes"; "cab.sdma_chains"; "cab.interrupts";
          "cab.rx_pipe_posts"; "cab.rx_pipe_overlap"; "cab.rx_pipe_stalls";
          "cab.netmem_failures"; "driver.tx_uio_segments";
          "driver.tx_gather_fallbacks"; "driver.tx_staged_bytes";
          "driver.copyouts"; "driver.rx_copied_kernel"; "link.bytes_carried";
        ]
    @ [
        ("link.utilization", fig.at.link_util);
        ("link.frames_dropped", d "link.frames_dropped");
      ]
    @ List.map
        (fun k -> (k, d k))
        [
          "tcp.retransmits"; "tcp.rto_fires"; "tcp.csum_failures_rx";
          "tcp.conn.syn_rcvd"; "tcp.conn.promoted"; "tcp.conn.accepted";
          "tcp.conn.accept_overflow"; "tcp.conn.syn_timeouts";
          "tcp.conn.synack_rexmits"; "tcp.conn.sheds";
        ]
    @ [
        ("socket.write_calls", fi io.wlat.Samples.n);
        ("socket.read_calls", fi io.rlat.Samples.n);
        ("socket.write_sim_us_p50", us (Samples.pct (Samples.sorted io.wlat) 50.));
        ("socket.read_sim_us_p50", us (Samples.pct (Samples.sorted io.rlat) 50.));
        ("socket.poll_wakeups", fi wakeups);
        ( "socket.poll_events_per_wakeup",
          if wakeups > 0 then fi poll_events /. fi wakeups else 0. );
        ("policy.uio_routed", policy (fun p -> p.Path_policy.uio_routed));
        ("policy.copy_routed", policy (fun p -> p.Path_policy.copy_routed));
        ("span.create_s", create_s);
        ("span.establish_s", setup_s -. create_s);
        ("span.run_s", c.run_s);
        ("span.driver_s", Span.call_seconds [ Span.write; Span.read ]);
        ("span.verify_s", c.verify);
        ("span.drain_s", drain_s);
      ]
  in
  ( metrics,
    Printf.sprintf "p%g over %d samples" q (Array.length lat) )

(* Frames sent by one CAB = frames the other received or dropped, plus
   frames the link lost (the link counts both directions together). *)
let frame_checks tb =
  let s n = Cab.stats n.Testbed.cab in
  let lost = Hippi_link.frames_dropped tb.Testbed.link in
  let dir name src dst =
    let sent = (s src).Cab.mdma_packets in
    let rcvd = (s dst).Cab.rx_packets and dropped = (s dst).Cab.rx_dropped in
    ( Printf.sprintf "frames %s: sent %d = received %d + dropped %d + lost %d" name
        sent rcvd dropped lost,
      sent = rcvd + dropped + lost )
  in
  [ dir "A->B" tb.Testbed.a tb.Testbed.b; dir "B->A" tb.Testbed.b tb.Testbed.a ]

let bytes_check ~written ~read =
  ( Printf.sprintf "payload: written %d = read %d" written read,
    written = read )

(* ---------- bulk: one long verified ttcp-style stream ---------- *)

(* ttcp's own loop overhead per write/read call, charged as user time. *)
let loop_cost = Simtime.us 5.

let bulk ~single_copy ~total ~seed =
  let wsize = 65536 in
  let nwrites = total / wsize in
  let tb, create_s =
    timed_create (fun () ->
        if single_copy then Testbed.create ()
        else Testbed.create ~mode:Stack_mode.Unmodified ())
  in
  let t_setup = wall () -. create_s in
  let sim = tb.Testbed.sim in
  (* The paper's measurement configuration: every write forced onto the
     M_UIO descriptor path. *)
  let paths =
    if single_copy then { Socket.default_paths with Socket.force_uio = true }
    else Socket.default_paths
  in
  let sa, sb = establish tb ~port:5001 ~paths in
  let a_host = host tb.Testbed.a and b_host = host tb.Testbed.b in
  let a_shard = Tcp.pcb_shard (Socket.pcb sa) in
  let b_shard = Tcp.pcb_shard (Socket.pcb sb) in
  let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"ttcp" in
  let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"ttcp" in
  (* Two identical source buffers cycle through Socket.write, so two
     writes are in flight. *)
  let srcs =
    Array.init 2 (fun _ ->
        let r = Addr_space.alloc a_space wsize in
        Region.fill_pattern r ~seed;
        r)
  in
  let dst = Addr_space.alloc b_space wsize in
  let setup_s = wall () -. t_setup in
  let io = new_io sim in
  let w = open_window tb in
  let issued = ref 0 and completed = ref 0 in
  let received = ref 0 and bad_reads = ref 0 in
  let finished = ref None in
  let rec send_loop buf =
    if !issued >= nwrites then begin
      if !completed >= nwrites then Socket.close sa
    end
    else begin
      let id = !issued in
      incr issued;
      Host.in_proc_on a_host ~shard:a_shard ~proc:"ttcp" ~mode:Cpu.User loop_cost
        (fun () ->
          write io sa srcs.(buf) ~id (fun () ->
              incr completed;
              send_loop buf))
    end
  in
  (* A read of [len] bytes at stream offset [off] must equal the pattern
     starting at [off mod wsize], wrapping at the buffer boundary. *)
  let verify_stream ~off ~len =
    let rec check doff soff remaining =
      remaining = 0
      ||
      let piece = min remaining (wsize - soff) in
      Region.equal_contents
        (Region.sub dst ~off:doff ~len:piece)
        (Region.sub srcs.(0) ~off:soff ~len:piece)
      && check (doff + piece) ((soff + piece) mod wsize) (remaining - piece)
    in
    check 0 (off mod wsize) len
  in
  let finish () = finished := Some (moment tb w) in
  let rec recv_loop () =
    if !received >= total then finish ()
    else
      Host.in_proc_on b_host ~shard:b_shard ~proc:"ttcp" ~mode:Cpu.User loop_cost
        (fun () ->
          read io sb dst ~exact:false ~id:(!received / wsize) (fun n ->
              if n = 0 then finish ()
              else begin
                let off = !received in
                if not (checked ~now:(Sim.now sim) (fun () -> verify_stream ~off ~len:n))
                then incr bad_reads;
                received := off + n;
                recv_loop ()
              end))
  in
  send_loop 0;
  send_loop 1;
  recv_loop ();
  run_to_quiet sim;
  let c = close_window tb w in
  let at =
    match !finished with Some m -> m | None -> failwith "stream did not finish"
  in
  let fig =
    {
      goodput_mbit = Simtime.rate_mbit ~bytes:!received at.elapsed;
      at;
      ops_per_s = float_of_int !completed /. Simtime.to_s at.elapsed;
      latency = io.wlat;
      payload = !received;
    }
  in
  let metrics, tail =
    assemble c ~io ~create_s ~setup_s ~drain_s:0. ~fig ~poll:(0, 0) ~policies:[]
  in
  {
    metrics;
    attempted = nwrites;
    failed = min nwrites (nwrites - !completed + !bad_reads);
    checks =
      (bytes_check ~written:(!completed * wsize) ~read:!received :: frame_checks tb)
      @ [ ("payload verified at the receiver", !bad_reads = 0 && !received = total) ];
    tail;
  }

(* ---------- rpc: one persistent connection, one outstanding request ---------- *)

let rpc ~rounds ~seed =
  let size = 64 in
  (* The single-copy stack in its production configuration: adaptive
     path policy with descriptor coalescing, as the macro rpc rows. *)
  let tb, create_s =
    timed_create (fun () ->
        Testbed.create
          ~tcp_config:(fun c -> { c with Tcp.coalesce_descriptors = true })
          ())
  in
  let t_setup = wall () -. create_s in
  let sim = tb.Testbed.sim in
  let paths =
    { Socket.default_paths with Socket.force_uio = false; adaptive = true }
  in
  let sa, sb = establish tb ~port:5002 ~paths in
  let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"rpc" in
  let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"rpc" in
  (* Consecutive requests carry different patterns, so a stale reply
     cannot pass the check. *)
  let reqs =
    Array.init 2 (fun i ->
        let r = Addr_space.alloc a_space size in
        Region.fill_pattern r ~seed:(seed + i);
        r)
  in
  let reply = Addr_space.alloc a_space size in
  let srv = Addr_space.alloc b_space size in
  let setup_s = wall () -. t_setup in
  let io = new_io sim in
  let lat = Samples.create () in
  let w = open_window tb in
  let ok = ref 0 and finished = ref None in
  let rec serve k =
    read io sb srv ~exact:true ~id:k (fun n ->
        if n > 0 then write io sb srv ~id:k (fun () -> serve (k + 1))
        else Socket.close sb)
  in
  let finish () =
    finished := Some (moment tb w);
    Socket.close sa
  in
  let rec client i =
    if i >= rounds then finish ()
    else begin
      let t = Sim.now sim in
      let sp = Span.start Span.request ~id:i ~now:t in
      let req = reqs.(i land 1) in
      write io sa req ~id:i (fun () ->
          read io sa reply ~exact:true ~id:i (fun n ->
              let now = Sim.now sim in
              Span.finish sp ~now;
              if n <> size then finish ()
              else begin
                if checked ~now (fun () -> Region.equal_contents reply req) then begin
                  incr ok;
                  Samples.add lat (now - t)
                end;
                client (i + 1)
              end))
    end
  in
  serve 0;
  client 0;
  run_to_quiet sim;
  let c = close_window tb w in
  let at =
    match !finished with Some m -> m | None -> failwith "rpc loop did not finish"
  in
  let fig =
    {
      goodput_mbit = Simtime.rate_mbit ~bytes:(2 * size * !ok) at.elapsed;
      at;
      ops_per_s = float_of_int !ok /. Simtime.to_s at.elapsed;
      latency = lat;
      payload = 2 * size * !ok;
    }
  in
  let policies =
    List.filter_map (fun s -> Option.map Path_policy.stats (Socket.path_policy s))
      [ sa; sb ]
  in
  let metrics, tail =
    assemble c ~io ~create_s ~setup_s ~drain_s:0. ~fig ~poll:(0, 0) ~policies
  in
  let sa_st = Socket.stats sa and sb_st = Socket.stats sb in
  {
    metrics;
    attempted = rounds;
    failed = rounds - !ok;
    checks =
      bytes_check
        ~written:(sa_st.Socket.bytes_written + sb_st.Socket.bytes_written)
        ~read:(sa_st.Socket.bytes_read + sb_st.Socket.bytes_read)
      :: frame_checks tb
      @ [ ("every reply echoed its request", !ok = rounds) ];
    tail;
  }

(* ---------- churn: the connection plane under closed-loop RPC churn ---------- *)

(* Occupancy gauges that must return exactly to their pre-run values. *)
let occupancy =
  [
    ("mbuf_pool", "live");
    ("mbuf_pool", "live_clusters");
    ("bufpool", "outstanding");
    ("addr_space", "pinned_pages");
    ("cab.hostA.cab", "netmem_in_use");
    ("cab.hostB.cab", "netmem_in_use");
  ]

let churn ~target ~seed =
  let concurrency = 256 and rpc_bytes = 256 and bulk_block = 32 * 1024 in
  let rpc_port = 7000 and bulk_ports = [ 7100; 7101; 7102; 7103 ] in
  let tb, create_s =
    timed_create (fun () ->
        Testbed.create ~shards:4
          ~tcp_config:(fun c ->
            {
              c with
              Tcp.msl = Simtime.ms 1.;
              Tcp.keepalive_idle = Simtime.ms 500.;
              Tcp.keepalive_intvl = Simtime.ms 100.;
              Tcp.keepalive_probes = 4;
            })
          ())
  in
  let t_setup = wall () -. create_s in
  let sim = tb.Testbed.sim in
  let tcp_a = tb.Testbed.a.Testbed.stack.Netstack.tcp in
  let tcp_b = tb.Testbed.b.Testbed.stack.Netstack.tcp in
  let a_host = host tb.Testbed.a and b_host = host tb.Testbed.b in
  let baseline = List.map (fun (s, n) -> ((s, n), obs s n)) occupancy in
  let pending0 = Sim.pending sim in
  let sp_est = Span.start Span.establish ~id:0 ~now:(Sim.now sim) in
  let nm_b = Cab.netmem tb.Testbed.b.Testbed.cab in
  Tcp.set_pressure_fn tcp_b (fun () ->
      float_of_int (Netmem.in_use nm_b)
      /. float_of_int (max 1 (Netmem.capacity_pages nm_b)));
  let io = new_io sim in
  (* Server: a bounded listener served through Sockpoll; each accepted
     connection echoes one request and closes on the client's FIN. *)
  let srv_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"srv" in
  let free_bufs = ref [] in
  let take_buf () =
    match !free_bufs with
    | b :: rest ->
        free_bufs := rest;
        b
    | [] -> Addr_space.alloc srv_space rpc_bytes
  in
  let ids = Hashtbl.create 64 in
  let accepted = ref 0 in
  let serve pcb =
    let id =
      match Hashtbl.find_opt ids (snd (Tcp.remote pcb)) with Some i -> i | None -> 0
    in
    let s = Socket.create ~host:b_host ~space:srv_space ~proc:"rpc" pcb in
    let buf = take_buf () in
    let close () =
      Socket.close s;
      free_bufs := buf :: !free_bufs
    in
    read io s buf ~exact:true ~id (fun n ->
        if n = rpc_bytes then
          write io s buf ~id (fun () -> read io s buf ~exact:false ~id (fun _ -> close ()))
        else close ())
  in
  let l =
    Tcp.create_listener tcp_b ~port:rpc_port ~backlog:1024 ~syn_backlog:512
      ~rst_on_full:true ~cookies:true ()
  in
  let poller = Sockpoll.create () in
  ignore (Sockpoll.add_listener poller ~data:0 l : Sockpoll.entry);
  let wakeups = ref 0 and poll_events = ref 0 in
  let rec service_loop () =
    Sockpoll.wait poller (fun evs ->
        incr wakeups;
        List.iter
          (fun ev ->
            incr poll_events;
            match ev.Sockpoll.ev_item with
            | Sockpoll.Listener l ->
                let rec drain () =
                  match Tcp.accept l with
                  | Some pcb ->
                      incr accepted;
                      serve pcb;
                      drain ()
                  | None -> ()
                in
                drain ()
            | Sockpoll.Sock _ -> ())
          evs;
        service_loop ())
  in
  service_loop ();
  (* Four long-lived in-kernel bulk flows beside the churn. *)
  let churn_done = ref false in
  let bulk_sent = ref 0 and bulk_got = ref 0 in
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
                       | Ok () ->
                           bulk_sent := !bulk_sent + bulk_block;
                           push ()
                       | Error _ -> ())
                 | Tcp.Established -> Tcp.close p
                 | _ -> ()
               in
               Tcp.set_callbacks p ~on_sendable:push ();
               push ())
             ()))
    bulk_ports;
  while List.length !bulk_senders < List.length bulk_ports && Sim.step sim do
    ()
  done;
  Span.finish sp_est ~now:(Sim.now sim);
  (* Clients: [concurrency] slots, each a closed loop of connect, request,
     reply, close.  A slot alternates two request patterns so a stale
     reply cannot pass the check. *)
  let cli_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"cli" in
  let reqs =
    Array.init concurrency (fun i ->
        Array.init 2 (fun j ->
            let r = Addr_space.alloc cli_space rpc_bytes in
            Region.fill_pattern r ~seed:(seed + (2 * i) + j);
            r))
  in
  let replies = Array.init concurrency (fun _ -> Addr_space.alloc cli_space rpc_bytes) in
  let setup_s = wall () -. t_setup in
  let lat = Samples.create () in
  let w = open_window tb in
  let launched = ref 0 and completed = ref 0 in
  let rec launch slot =
    if not !churn_done then begin
      let id = !launched in
      incr launched;
      let t = Sim.now sim in
      let sp = Span.start Span.request ~id ~now:t in
      let req = reqs.(slot).(id land 1) and reply = replies.(slot) in
      let pcb = ref None in
      pcb :=
        Some
          (Tcp.connect tcp_a ~dst:Testbed.addr_b ~dst_port:rpc_port
             ~on_established:(fun () ->
               let s =
                 Socket.create ~host:a_host ~space:cli_space ~proc:"rpc"
                   (Option.get !pcb)
               in
               write io s req ~id (fun () ->
                   read io s reply ~exact:true ~id (fun n ->
                       let now = Sim.now sim in
                       Span.finish sp ~now;
                       if
                         n = rpc_bytes
                         && checked ~now (fun () -> Region.equal_contents reply req)
                       then begin
                         incr completed;
                         Samples.add lat (now - t)
                       end;
                       Socket.close s;
                       launch slot)))
             ());
      Hashtbl.replace ids (Tcp.local_port (Option.get !pcb)) id
    end
  in
  (* The watcher closes the churn window the moment the server has
     accepted the target, and takes the window's figures there. *)
  let window_figs = ref None in
  let rec watch () =
    if !accepted >= target then begin
      churn_done := true;
      window_figs := Some (moment tb w, !bulk_got, !completed);
      List.iter Tcp.close !bulk_senders
    end
    else ignore (Sim.after sim (Simtime.ms 1.) watch : Sim.handle)
  in
  for slot = 0 to concurrency - 1 do
    launch slot
  done;
  watch ();
  run_to_quiet sim;
  let c = close_window tb w in
  (* Drain to baseline: close everything, quiesce, compare occupancy. *)
  let sp_drain = Span.start Span.drain ~id:0 ~now:(Sim.now sim) in
  let t_drain = wall () in
  churn_done := true;
  Tcp.close_listener l;
  List.iter (fun port -> Tcp.unlisten tcp_b ~port) bulk_ports;
  let run_slack () = Sim.run ~until:(Simtime.add (Sim.now sim) (Simtime.s 40.)) sim in
  run_slack ();
  let rec drain n =
    if n > 0 then begin
      let pending =
        Cab.poll tb.Testbed.a.Testbed.cab + Cab.poll tb.Testbed.b.Testbed.cab
      in
      run_slack ();
      if pending > 0 then drain (n - 1)
    end
  in
  drain 16;
  run_slack ();
  let drain_s = wall () -. t_drain in
  Span.finish sp_drain ~now:(Sim.now sim);
  let leaks =
    List.filter_map
      (fun ((s, n), b) ->
        let f = obs s n in
        if f <> b then Some (Printf.sprintf "%s/%s %g -> %g" s n b f) else None)
      baseline
    @ List.filter_map
        (fun (name, b, f) ->
          if b <> f then Some (Printf.sprintf "%s %d -> %d" name b f) else None)
        [
          ("sim/pending", pending0, Sim.pending sim);
          ("tcp/active_flows_a", 0, Tcp.active_flows tcp_a);
          ("tcp/active_flows_b", 0, Tcp.active_flows tcp_b);
        ]
  in
  let at, bulk_bytes, done_in_window =
    match !window_figs with
    | Some f -> f
    | None -> failwith "churn did not reach its accept target"
  in
  let secs = Simtime.to_s at.elapsed in
  let fig =
    {
      goodput_mbit = float_of_int (bulk_bytes * 8) /. secs /. 1e6;
      at;
      ops_per_s = float_of_int done_in_window /. secs;
      latency = lat;
      payload = !bulk_sent + (2 * rpc_bytes * !completed);
    }
  in
  let metrics, tail =
    assemble c ~io ~create_s ~setup_s ~drain_s ~fig
      ~poll:(!wakeups, !poll_events) ~policies:[]
  in
  {
    metrics;
    attempted = !launched;
    failed = !launched - !completed;
    checks =
      bytes_check ~written:!bulk_sent ~read:!bulk_got
      :: frame_checks tb
      @ [
          ( Printf.sprintf "accepts: %d >= target %d" !accepted target,
            !accepted >= target );
          ( "drain to baseline"
            ^ (if leaks = [] then "" else ": " ^ String.concat ", " leaks),
            leaks = [] );
        ];
    tail;
  }

(* ---------- the run ---------- *)

let workloads =
  [
    ( "bulk-1copy",
      fun ~small ~seed ->
        bulk ~single_copy:true ~total:((if small then 8 else 512) lsl 20) ~seed );
    ( "bulk-2copy",
      fun ~small ~seed ->
        bulk ~single_copy:false ~total:((if small then 4 else 128) lsl 20) ~seed );
    ("rpc", fun ~small ~seed -> rpc ~rounds:(if small then 1_000 else 25_000) ~seed);
    ("churn", fun ~small ~seed -> churn ~target:(if small then 300 else 4_000) ~seed);
  ]

let end_to_end =
  [
    ("wall_s", "s"); ("setup_s", "s"); ("alloc_mwords", "Mwords");
    ("peak_heap_mb", "MB"); ("sim_goodput_mbit", "Mbit/s"); ("sim_util", "ratio");
    ("sim_efficiency_mbit", "Mbit/s"); ("copies_per_byte", "copies/B");
    ("host_sums_per_byte", "sums/B"); ("sim_latency_p50_us", "sim_us");
    ("sim_latency_tail_us", "sim_us"); ("sim_ops_per_s", "ops/sim_s");
  ]

(* Host-plane metrics vary from round to round; every other metric is a
   function of the seed alone and must repeat exactly. *)
let host_plane name =
  List.mem name
    [
      "wall_s"; "setup_s"; "alloc_mwords"; "engine.events_per_s";
      "engine.alloc_words_per_event"; "engine.major_words_per_event";
      "engine.promoted_words_per_event"; "engine.major_gcs";
    ]
  || List.exists
       (fun p -> String.starts_with ~prefix:p name)
       [ "mbuf."; "memory."; "span." ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None ->
      let ends s = String.ends_with ~suffix:s name in
      if ends "_per_s" then "1/s"
      else if ends "_s" then "s"
      else if ends "_us" || ends "_us_p50" then "sim_us"
      else if ends "_per_event" then "words/event"
      else if ends "_bytes" || name = "link.bytes_carried" then "bytes"
      else if
        List.mem name
          [
            "mbuf.pool_hit_rate"; "memory.bufpool_hit_rate"; "link.utilization";
            "span.tracing_overhead"; "socket.poll_events_per_wakeup";
          ]
      then "ratio"
      else "count"

let json_result ~correct ~attempted ~failed metrics =
  let num v = Printf.sprintf "%.17g" v in
  let body =
    List.map
      (fun (k, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) (unit_of k))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

(* ---------- calibration ---------- *)

(* A shared machine's speed drifts by up to 2x over minutes as other
   tenants load it, and the simulator's wall time drifts with it.  Host times
   are therefore scaled by a calibration kernel timed right before and
   after each round: a fixed mix of standard-library work (sorting,
   hashing, balanced-tree inserts, formatting, list allocation) that
   shares no code with nectar, so no change to the simulator can move it.
   The scaled figures are seconds on a machine where the kernel takes
   [nominal_kernel_s]. *)
module Int_map = Map.Make (Int)

let nominal_kernel_s = 0.08

let calibration_kernel () =
  let t = wall () in
  let a = Array.init (1 lsl 17) (fun i -> (i * 7919) land 0xffff) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  for i = 0 to 200_000 do
    Hashtbl.replace h (i land 4095) i
  done;
  let st = ref 7 and m = ref Int_map.empty in
  for i = 0 to 20_000 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    m := Int_map.add (!st land 0xffff) i !m
  done;
  let hs = Hashtbl.create 64 in
  for i = 0 to 5_000 do
    Hashtbl.replace hs (Printf.sprintf "k%d:%s" (i land 1023) "x") i
  done;
  let l = List.sort compare (List.init 20_000 (fun i -> (i * 7919) land 0xffff)) in
  ignore (Sys.opaque_identity (l, Int_map.cardinal !m, a.(0)));
  wall () -. t

let calibrated = [ "wall_s"; "setup_s" ]

(* The process's peak heap is read after a fixed number of rounds, since
   how many rounds fit in a run depends on the machine's speed. *)
let heap_rounds = 3

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and small = ref false in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S wall seconds");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics and spans");
      ("--small", Arg.Set small, " small rounds (the benchmark's own test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let round_fn =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let traced = !trace = 1 in
  let seed = !seed and small = !small in
  Printf.printf "workload %s, seed %d, %.0f s%s%s\n%!" !workload seed !seconds
    (if traced then ", traced" else "")
    (if small then ", small rounds" else "");
  (* Rounds run until the wall time is used up; a traced run alternates
     untraced and traced rounds so their wall times can be compared. *)
  let start = wall () in
  let hard_cap = Float.min 150. (Float.max 30. (3. *. !seconds)) in
  let plain = ref [] and with_spans = ref [] in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let first = ref None and mismatches = ref [] in
  let n_rounds = ref 0 in
  (* Every round starts from a collected heap, so no round pays for the
     garbage of the testbeds before it. *)
  Gc.full_major ();
  let kernel = ref (calibration_kernel ()) and kernels = ref [] in
  let peak_heap_mb = ref 0. in
  let wanted () =
    let elapsed = wall () -. start in
    elapsed < hard_cap
    && (elapsed < !seconds
       || List.length !plain < 3
       || (traced && List.length !with_spans < 3))
  in
  while wanted () do
    let spans = traced && !n_rounds mod 2 = 1 in
    incr n_rounds;
    Span.begin_round spans;
    (match round_fn ~small ~seed with
    | r ->
        Gc.full_major ();
        let k = calibration_kernel () in
        let factor = nominal_kernel_s /. ((!kernel +. k) /. 2.) in
        kernel := k;
        kernels := k :: !kernels;
        let r =
          {
            r with
            metrics =
              List.map
                (fun (n, v) -> (n, if List.mem n calibrated then v *. factor else v))
                r.metrics;
          }
        in
        attempted := !attempted + r.attempted;
        failed := !failed + r.failed;
        List.iter
          (fun (what, ok) -> if not ok then errors := what :: !errors)
          r.checks;
        (match !first with
        | None ->
            first := Some r;
            List.iter
              (fun (what, ok) ->
                Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") what)
              r.checks;
            Printf.printf "latency tail is %s\n" r.tail
        | Some f ->
            List.iter2
              (fun (k, a) (_, b) ->
                if (not (host_plane k)) && a <> b
                   && not (List.mem k !mismatches)
                then begin
                  mismatches := k :: !mismatches;
                  Printf.printf "DETERMINISM: %s was %.17g, now %.17g\n" k a b
                end)
              f.metrics r.metrics);
        if spans then with_spans := r :: !with_spans else plain := r :: !plain
    | exception e ->
        (* A crashed round is a failed operation, not a crashed benchmark. *)
        incr attempted;
        incr failed;
        errors := ("round raised " ^ Printexc.to_string e) :: !errors);
    Span.begin_round false;
    if !n_rounds = heap_rounds then peak_heap_mb := top_heap_mb ()
  done;
  let med rounds name = median (List.map (fun r -> List.assoc name r.metrics) rounds) in
  let failed_share =
    if !attempted > 0 then float_of_int !failed /. float_of_int !attempted else 1.
  in
  Printf.printf "rounds: %d untraced, %d traced; attempted %d, failed %d, failed_share %g\n"
    (List.length !plain) (List.length !with_spans) !attempted !failed failed_share;
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev !errors);
  let kernel_s = median !kernels in
  Printf.printf
    "calibration kernel: median %.4f s (nominal %.2f s); uncalibrated medians: wall_s %.6f s, setup_s %.6f s\n"
    kernel_s nominal_kernel_s
    (median
       (List.map
          (fun r -> List.assoc "span.run_s" r.metrics -. List.assoc "span.verify_s" r.metrics)
          !plain))
    (med !plain "span.create_s" +. med !plain "span.establish_s");
  if !n_rounds < heap_rounds then peak_heap_mb := top_heap_mb ();
  let e2e =
    List.map
      (fun (name, _) ->
        (name, if name = "peak_heap_mb" then !peak_heap_mb else med !plain name))
      end_to_end
  in
  (* Deterministic fingerprint of the simulated results, for comparing
     runs across processes. *)
  (match !first with
  | Some f ->
      let det = List.filter (fun (k, _) -> not (host_plane k)) f.metrics in
      Printf.printf "determinism digest: %s\n"
        (Digest.to_hex
           (Digest.string
              (String.concat ";"
                 (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) det))))
  | None -> ());
  let metrics =
    if not traced then e2e
    else begin
      let layer_names =
        match !with_spans with
        | r :: _ ->
            List.filter
              (fun k -> not (List.mem_assoc k end_to_end))
              (List.map fst r.metrics)
        | [] -> []
      in
      let overhead = med !with_spans "wall_s" /. med !plain "wall_s" in
      let layers =
        List.map (fun k -> (k, med !with_spans k)) layer_names
        @ [ ("span.tracing_overhead", overhead); ("calibration.kernel_s", kernel_s) ]
      in
      let out = Filename.concat "perfbench" "out" in
      (try Sys.mkdir out 0o755 with Sys_error _ -> ());
      let base = Filename.concat out !workload in
      let n, dropped = Span.dump (base ^ "-spans.jsonl") in
      Printf.printf "spans: %d written to %s-spans.jsonl (%d dropped)\n" n base dropped;
      let table =
        List.map
          (fun (k, v) -> Printf.sprintf "%-36s %18.6g %s" k v (unit_of k))
          (e2e @ layers)
      in
      let oc = open_out (base ^ "-layers.txt") in
      Printf.fprintf oc
        "# %s, seed %d: end-to-end medians over %d untraced rounds, per-layer \
         over %d traced rounds\n"
        !workload seed (List.length !plain) (List.length !with_spans);
      List.iter (fun l -> output_string oc (l ^ "\n")) table;
      close_out oc;
      layers
    end
  in
  List.iter
    (fun (k, v) -> Printf.printf "%-36s %18.6g %s\n" k v (unit_of k))
    (if traced then e2e @ metrics else metrics);
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let correct =
    !failed = 0 && !errors = [] && !mismatches = [] && finite && !plain <> []
  in
  let metrics = List.map (fun (k, v) -> (k, if Float.is_finite v then v else 0.)) metrics in
  print_endline (json_result ~correct ~attempted:!attempted ~failed:!failed metrics)
