(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the extra experiments DESIGN.md lists, plus Bechamel
   microbenchmarks of the real data-touching primitives, the end-to-end
   macro rows and the soak and server scenarios.

   Usage:  main.exe [--json] [--out-dir DIR] [--trace] [target ...]
   Targets: every name in Targets.all (lib/harness/targets.ml), then
            micro macro soak server; "paper" and "all" expand.
   Default: all.

   --json     also write BENCH_micro.json / BENCH_macro.json
   --out-dir  directory for every emitted file (default ".")
   --trace    with the macro target: record one forced-uio ttcp-64K run
              in the packet tracer and write BENCH_trace.json (Chrome
              trace-event format, load in chrome://tracing or Perfetto)
              plus BENCH_obs.json (the full metrics-registry dump)

   Every BENCH_{micro,macro,soak,server}.json carries the invariants that
   scripts/bench_gate.py checks; see "gate invariants" below. *)

let out_dir = ref "."
let trace_mode = ref false

let out_path file = Filename.concat !out_dir file

(* ---------------- gate invariants ----------------

   Each entry reads [lhs op scale * rhs] and fails the gate (severity
   "fail") or only warns ("warn") when false.  An operand is a JSON
   constant, a dot path from the artifact's root ("baseline:" paths read
   bench/BENCH_baseline.json instead), or [a, "-", b] / [a, "/", b].
   Operands name measured fields, never a figure computed here, so
   editing a field in the JSON trips the invariant.  Names start with
   the artifact ("macro.", "micro.", ...); the baseline lists every name
   the gate requires, so dropping one fails too. *)

let path p = Printf.sprintf "%S" p
let field row f = path (row ^ "." ^ f)
let base_field row f = path ("baseline:" ^ row ^ "." ^ f)
let const x = Printf.sprintf "%g" x
let arith a op b = Printf.sprintf "[%s, %S, %s]" a op b

let invariant ?(warn = false) ?(scale = 1.) name lhs op rhs =
  Printf.sprintf
    "{ \"name\": %S, \"lhs\": %s, \"op\": %S, \"rhs\": %s%s, \"severity\": \
     %S }"
    name lhs op rhs
    (if scale = 1. then "" else Printf.sprintf ", \"scale\": %g" scale)
    (if warn then "warn" else "fail")

let invariants_json l = "[\n    " ^ String.concat ",\n    " l ^ " ]"

(* Advisory wall-clock drift: [cur] over [anchor] within ±35 % of the
   same ratio in the baseline.  On a shared box the run-to-run spread of
   the normalised wall clock exceeds 30 % with an identical binary, so
   drift only warns; the hard gates are the deterministic invariants. *)
let drift_warns name ~cur ~anchor ~base ~base_anchor =
  let lhs = arith cur "/" anchor and rhs = arith base "/" base_anchor in
  [
    invariant ~warn:true ~scale:0.65 (name ^ ".drift_lo") lhs ">=" rhs;
    invariant ~warn:true ~scale:1.35 (name ^ ".drift_hi") lhs "<=" rhs;
  ]

(* ---------------- Bechamel microbenchmarks ---------------- *)

let micro ?(json = false) () =
  let open Bechamel in
  let open Toolkit in
  let buf32k = Bytes.create 32768 in
  for i = 0 to Bytes.length buf32k - 1 do
    Bytes.set_uint8 buf32k i (i land 0xff)
  done;
  let chain = Mbuf.of_bytes ~pkthdr:true buf32k in
  let region = Region.of_bytes ~vaddr:0 (Bytes.copy buf32k) in
  let dst = Bytes.create 32768 in
  (* A two-segment descriptor (M_UIO) chain over one user region: checksum
     over it exercises the zero-copy iter_segments path. *)
  let uio_chain =
    let sp = Addr_space.create ~profile:Host_profile.alpha400 ~name:"bench" () in
    let r = Addr_space.alloc sp 32768 in
    Region.fill_pattern r ~seed:7;
    let a =
      Mbuf.make_uio
        ~region:(Region.sub r ~off:0 ~len:16384)
        ~notify:None
    in
    let b =
      Mbuf.make_uio
        ~region:(Region.sub r ~off:16384 ~len:16384)
        ~notify:None
    in
    Mbuf.append a b;
    a
  in
  (* Timer-core rows: the hot-loop regime the timing wheel exists for —
     short-delay schedule / re-arm / true-cancel traffic (the TCP
     RTO/delayed-ack pattern) over a large standing population of
     long-delay timers (watchdogs, keepalives), on the wheel-backed
     scheduler vs the heap-only reference (Sim.create ~wheel:false).

     In the heap, every short-delay push sifts up past the entire
     standing population (its deadline is below all of theirs), and
     every cancel and every dispatch takes a record out with a sift down
     the full depth.  In the wheel each of those is an O(1) dlist
     splice.  Each test owns its rig, so the churn rows leave the fire
     rows' clock and cursor alone.  The gates are deterministic counts
     below: the wheel's work, and the words a churn operation
     allocates. *)
  let n_background = 65536 in
  let timer_rig wheel =
    let sim = Sim.create ~wheel () in
    for i = 0 to n_background - 1 do
      (* Standing long-delay timers, spread 1..8 s out (inside the wheel
         horizon) and self-re-arming so the population never drains. *)
      let d = 1_000_000_000 + (i * 97_731 mod 7_000_000_000) in
      let tm = Sim.timer sim ignore in
      Sim.set_fn tm (fun () -> Sim.rearm sim tm d);
      Sim.rearm sim tm d
    done;
    (sim, Array.init 256 (fun _ -> Sim.timer sim ignore))
  in
  let churn (sim, tms) () =
    (* Short hot delays, 1..66 us: below every standing deadline.  Plain
       loops, so a round allocates only what the scheduler does. *)
    for i = 0 to Array.length tms - 1 do
      Sim.rearm sim tms.(i) (1_000 + ((i * 7919) land 0xffff))
    done;
    for i = 0 to Array.length tms - 1 do
      Sim.rearm sim tms.(i) (2_000 + ((i * 104_729) land 0xffff))
    done;
    for i = 0 to Array.length tms - 1 do
      Sim.stop sim tms.(i)
    done
  in
  let fire (sim, tms) () =
    Array.iteri (fun i tm -> Sim.rearm sim tm ((i + 1) * 997)) tms;
    (* Step through just the hot window, up to its last deadline, so the
       standing population stays armed.  [Sim.run ~until] would look
       past the window and move the wheel's cursor on to the next
       standing deadline, and every later window's hot timers would
       then fall behind the cursor and go to the heap. *)
    let last = tms.(Array.length tms - 1) in
    while Sim.armed last && Sim.step sim do
      ()
    done
  in
  let churn_wheel = timer_rig true and churn_heap = timer_rig false in
  let fire_wheel = timer_rig true and fire_heap = timer_rig false in
  (* The wheel's deterministic work ({!Sim.wheel_work}: cursor steps,
     cascades and heap rejects) on fresh rigs, per timer operation (an
     arm, a stop or a firing): 16 rounds of the churn pattern must cost
     none, and one fire window a bounded amount.  Unlike the wall-clock
     ratio, these counts do not move with machine load.  Churn never
     advances the cursor, so its count sees only heap rejects. *)
  let wheel_work run =
    let ((sim, _) as rig) = timer_rig true in
    let w0 = Sim.wheel_work sim and f0 = Sim.events_fired sim in
    let arms = run rig in
    (Sim.wheel_work sim - w0, arms + Sim.events_fired sim - f0)
  in
  let churn_work, churn_ops =
    wheel_work (fun rig ->
        for _ = 1 to 16 do
          churn rig ()
        done;
        16 * 3 * 256)
  in
  (* Minor words the same 16 churn rounds allocate on a fresh rig of
     each store, after one warm-up round: an arm, a stop and a re-arm
     allocate nothing in either. *)
  let churn_words =
    let words wheel =
      let rig = timer_rig wheel in
      churn rig ();
      let w0 = Gc.minor_words () in
      for _ = 1 to 16 do
        churn rig ()
      done;
      Gc.minor_words () -. w0
    in
    int_of_float (words true +. words false)
  in
  let fire_work, fire_ops =
    wheel_work (fun rig ->
        fire rig ();
        256)
  in
  (* Windows after the first must find the cursor where the last one
     left it: four in a row on one rig send no hot deadline to the heap
     as near.  The rig's scheduler is the latest, so its gauge answers. *)
  let fire_near_rejects =
    let rig = timer_rig true in
    let near () = Obs.value ~section:"sim" ~name:"wheel_near_rejects" in
    let n0 = near () in
    for _ = 1 to 4 do
      fire rig ()
    done;
    int_of_float (near () -. n0)
  in
  (* RSS demux at 10K standing flows: the open-addressed per-shard flow
     table vs the legacy assoc-list scan it replaced.  Both rows look up
     the same 256 tuples (hash computed inline, as the real demux does);
     their invariant requires assoc/hash >= 20x in the same run. *)
  let demux_flows = 10_000 in
  let demux_tuples =
    Array.init demux_flows (fun i ->
        (Inaddr.v 10 1 ((i lsr 8) land 0xff) (i land 0xff), 10_000 + i, 5001))
  in
  let demux_tab = Flowtab.create () in
  Array.iter
    (fun (raddr, lport, rport) ->
      Flowtab.add demux_tab
        ~hash:(Flow_hash.hash ~raddr ~lport ~rport)
        ~ka:((lport lsl 16) lor rport)
        ~kb:(Flow_hash.addr_bits raddr) 0)
    demux_tuples;
  let demux_assoc =
    Array.to_list
      (Array.map
         (fun (raddr, lport, rport) ->
           ((lport, rport, Flow_hash.addr_bits raddr), 0))
         demux_tuples)
  in
  let demux_probe =
    Array.init 256 (fun i -> demux_tuples.(i * 389 mod demux_flows))
  in
  (* The heap row's 64 records, keyed once: a take leaves the key. *)
  let queue_records =
    Array.init 64 (fun i ->
        let tm = Timer_wheel.make ~fn:ignore in
        tm.Timer_wheel.deadline <- (i * 7919) land 0xffff;
        tm.Timer_wheel.seq <- i;
        tm)
  in
  let tests =
    [
      Test.make ~name:"inet_csum/32K" (Staged.stage (fun () ->
          ignore (Inet_csum.of_bytes buf32k)));
      Test.make ~name:"timer/churn-wheel" (Staged.stage (churn churn_wheel));
      Test.make ~name:"timer/churn-heap" (Staged.stage (churn churn_heap));
      Test.make ~name:"timer/fire-wheel" (Staged.stage (fire fire_wheel));
      Test.make ~name:"timer/fire-heap" (Staged.stage (fire fire_heap));
      Test.make ~name:"inet_csum/32K-odd-offset" (Staged.stage (fun () ->
          ignore (Inet_csum.of_bytes ~off:1 ~len:32001 buf32k)));
      Test.make ~name:"inet_csum/copy_and_sum-32K" (Staged.stage (fun () ->
          ignore
            (Inet_csum.copy_and_sum ~src:buf32k ~src_off:0 ~dst ~dst_off:0
               ~len:32768)));
      Test.make ~name:"inet_csum/chain-32K" (Staged.stage (fun () ->
          ignore (Mbuf.checksum chain ~off:0 ~len:32768)));
      Test.make ~name:"inet_csum/uio-chain-32K" (Staged.stage (fun () ->
          ignore (Mbuf.checksum uio_chain ~off:0 ~len:32768)));
      Test.make ~name:"mbuf/copy_range-32K" (Staged.stage (fun () ->
          Mbuf.free (Mbuf.copy_range chain ~off:100 ~len:30000)));
      Test.make ~name:"mbuf/of_bytes-32K" (Staged.stage (fun () ->
          Mbuf.free (Mbuf.of_bytes buf32k)));
      Test.make ~name:"region/blit-32K" (Staged.stage (fun () ->
          Region.blit_to_bytes region ~src_off:0 dst ~dst_off:0 ~len:32768));
      Test.make ~name:"event_queue/push-pop-64" (Staged.stage (fun () ->
          let q = Event_queue.create () in
          Array.iter (Event_queue.push q) queue_records;
          while not (Event_queue.is_empty q) do
            ignore (Event_queue.take q : Timer_wheel.timer)
          done));
      Test.make ~name:"tcp_header/encode-decode" (Staged.stage (fun () ->
          let h =
            Tcp_header.make ~flags:[ Tcp_header.ACK ] ~src_port:1 ~dst_port:2
              ~seq:42 ~ack:43 ()
          in
          let b = Bytes.create 20 in
          Tcp_header.encode h ~csum:0 b ~off:0;
          ignore (Tcp_header.decode b ~off:0 ~len:20)));
      Test.make ~name:"demux/lookup-10K-hash" (Staged.stage (fun () ->
          Array.iter
            (fun (raddr, lport, rport) ->
              ignore
                (Flowtab.find demux_tab
                   ~hash:(Flow_hash.hash ~raddr ~lport ~rport)
                   ~ka:((lport lsl 16) lor rport)
                   ~kb:(Flow_hash.addr_bits raddr)))
            demux_probe));
      Test.make ~name:"demux/lookup-10K-assoc" (Staged.stage (fun () ->
          Array.iter
            (fun (raddr, lport, rport) ->
              ignore
                (List.assoc_opt
                   (lport, rport, Flow_hash.addr_bits raddr)
                   demux_assoc))
            demux_probe));
      Test.make ~name:"sim/ttcp-64K-single-copy" (Staged.stage (fun () ->
          let tb = Testbed.create () in
          ignore
            (Ttcp.run ~tb ~wsize:65536 ~total:(1 lsl 20) ~verify:false ())));
    ]
  in
  Tabulate.print_header "Microbenchmarks (real CPU time, Bechamel OLS)";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests)
  in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let widths = [ 32; 16; 8 ] in
  Tabulate.print_row ~widths [ "benchmark"; "ns/run"; "r2" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%.1f" e
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      Tabulate.print_row ~widths [ name; est; r2 ])
    rows;
  if json then begin
    let file = out_path "BENCH_micro.json" in
    let oc = open_out file in
    output_string oc "{\n";
    List.iter
      (fun (name, ols) ->
        let est =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        Printf.fprintf oc "  %S: %.1f,\n" name est)
      rows;
    Printf.fprintf oc
      "  \"timer_wheel_work\": { \"churn_ops\": %d, \"churn_work\": %d, \
       \"churn_words\": %d, \"fire_ops\": %d, \"fire_work\": %d, \
       \"fire_near_rejects\": %d },\n"
      churn_ops churn_work churn_words fire_ops fire_work fire_near_rejects;
    (* Every row must report a positive estimate; the fire and demux
       pairs hold their claims as same-run ratios; the wheel's
       deterministic work and the churn rounds' words gate the timer
       core, while the timer rows' drift against the baseline,
       normalised by the unrelated mbuf anchor row, only warns (bechamel
       on a shared box is too noisy). *)
    let row n = path ("micro " ^ n) in
    let base n = path ("baseline:micro.micro " ^ n) in
    let anchor = "mbuf/of_bytes-32K" in
    let checks =
      List.map
        (fun (name, _) ->
          let n = String.sub name 6 (String.length name - 6) in
          invariant ("micro." ^ n ^ ".positive") (path name) ">" (const 0.))
        rows
      @ [
          invariant "micro.timer.churn_words"
            (path "timer_wheel_work.churn_words") "<=" (const 0.);
          invariant "micro.timer.churn_wheel_work"
            (path "timer_wheel_work.churn_work") "<=" (const 0.);
          invariant ~scale:2.5 "micro.timer.fire_wheel_work"
            (path "timer_wheel_work.fire_work") "<="
            (path "timer_wheel_work.fire_ops");
          invariant "micro.timer.fire_wheel_near_rejects"
            (path "timer_wheel_work.fire_near_rejects") "<=" (const 0.);
          invariant "micro.timer.fire_wheel_le_heap" (row "timer/fire-wheel")
            "<=" (row "timer/fire-heap");
          invariant ~scale:20. "micro.demux.speedup"
            (row "demux/lookup-10K-assoc") ">=" (row "demux/lookup-10K-hash");
        ]
      @ List.concat_map
          (fun n ->
            drift_warns ("micro." ^ n) ~cur:(row n) ~anchor:(row anchor)
              ~base:(base n) ~base_anchor:(base anchor))
          [ "timer/churn-heap"; "timer/churn-wheel"; "timer/fire-heap";
            "timer/fire-wheel" ]
    in
    Printf.fprintf oc "  \"invariants\": %s\n}\n" (invariants_json checks);
    close_out oc;
    Printf.printf "\n  wrote %s (name -> ns/run, plus its invariants)\n" file
  end

(* ---------------- macro benchmark ----------------

   End-to-end workloads through the full simulated stack, on both the
   single-copy CAB path and the unmodified two-copy path:

     - ttcp bulk transfers (4K / 64K / 1M).  The single-copy rows run the
       adaptive path policy with TCP descriptor coalescing on — the
       production configuration, not the paper's force-uio measurement
       configuration — so small transfers route to whichever path the
       policy picks.
     - small-message RPC (64B / 512B / 4K request-response, one
       outstanding request) — the regime the adaptive policy exists for.

   Each configuration is run once to warm the storage pools, the pool
   counters are then reset (keeping the free-lists), and the measured runs
   report

     - real host ns per simulated run (advisory: drift only warns),
     - minor-heap words allocated per run (deterministic for a binary),
     - the simulated throughput the workload achieves (pinned exactly to
       the baseline),
     - the mbuf-pool and frame-pool hit rates over the measured runs,
     - the adaptive policy's routing-decision counters where one ran,
     - the data-touch ledger, latency percentiles and rx-pipeline
       counters, and
     - the invariants the gate holds the row to. *)

type macro_row = {
  row_name : string;
  row_ns : float;
  row_samples : float array;
      (** per-iteration wall-clock ns, sorted ascending: the spread a
          reader needs before chasing a drift warning *)
  row_words : float;  (** minor-heap words allocated per measured run *)
  row_trace_events : float option;
      (** trace events emitted per measured run, traced rows only *)
  row_mbit : float;
  row_mbuf : float;
  row_frame : float;
  row_routing : Path_policy.stats option;
  row_touch : string;  (** data-touch ledger report (JSON object) *)
  row_lat : string;
      (** per-flow latency percentiles (JSON object, Obs_lat quantiles
          over the measured iterations) *)
  row_fault : string option;
      (** recovery-plane report (JSON object), fault-injection rows only *)
  row_rx_pipe : string option;
      (** receiver CAB rx-pipeline counters (JSON object), ttcp rows *)
  row_invariants : string list;
}

(* Side channel from a fault-injection workload to [measure]: the run
   closure deposits its recovery report here and [measure] attaches it to
   the row (the shared closure signature stays (mbit, routing, bytes)). *)
let fault_json : string option ref = ref None

(* Same side-channel pattern for the receiver adaptor's rx-pipeline
   counters: every ttcp run deposits them so the gate can prove the
   copy-out/auto-DMA overlap actually happened on the bulk rows. *)
let rx_pipe_json : string option ref = ref None

let deposit_rx_pipe cab =
  let p = Cab.rx_pipe_stats cab in
  rx_pipe_json :=
    Some
      (Printf.sprintf
         "{ \"depth\": %d, \"posts\": %d, \"hwm\": %d, \"overlap\": %d, \
          \"stalls\": %d }"
         p.Cab.rx_pipe_depth p.Cab.rx_pipe_posts p.Cab.rx_pipe_hwm
         p.Cab.rx_pipe_overlap p.Cab.rx_pipe_stalls)

(* Flight-recorder side channel: when armed (the traced 1M row), each
   ttcp run drives an Obs_series recorder from a timing-wheel periodic
   timer on the run's own sim clock; the last window is written to
   BENCH_series.json.  The tick self-stops once the workload drains
   (see the pending-events check below), so the periodic timer never
   keeps the simulation running to the 600 s horizon. *)
let series_on = ref false
let series_last : Obs_series.t option ref = ref None

(* 1 ms snapshots: each wheel firing costs ~1-3 us of host time in
   cursor advance (512 ns slots), so a finer interval would dominate
   the traced row's instrumentation-overhead budget; 1 ms still yields
   ~100 samples across the 1 MB transfer. *)
let series_interval = Simtime.ms 1.

let arm_series tb =
  if !series_on then begin
    let sim = tb.Testbed.sim in
    let s =
      Obs_series.create ~capacity:512 ~interval:series_interval
        ~metrics:
          [
            ("tcp", "retransmits");
            ("tcp", "csum_failures_rx");
            ("cab.hostB.cab", "rx_packets");
            ("cab.hostB.cab", "sdma_bytes");
            ("cab.hostB.cab", "rx_pipe_inflight");
            ("cab.hostB.cab", "interrupts");
            ("cab_driver.hostB.cab", "copyouts");
            ("cab_driver.hostB.cab", "watchdog_polls");
          ]
    in
    let handle = ref None in
    let h =
      Sim.periodic sim ~every:series_interval (fun () ->
          Obs_series.tick s ~now:(Sim.now sim);
          (* Inside the callback our own next tick is already re-armed,
             so pending <= 1 means nothing else exists anywhere: the
             workload (including time-wait teardown) has fully drained
             and the recorder must not keep the simulation alive. *)
          if Sim.pending sim <= 1 then
            match !handle with Some h -> Sim.stop sim h | None -> ())
    in
    handle := Some h;
    series_last := Some s
  end

let macro_tcp_config ~adaptive c =
  if adaptive then { c with Tcp.coalesce_descriptors = true } else c

(* One full ttcp transfer; returns (sim Mbit/s, routing stats, payload
   bytes moved).  [force_uio] selects the paper's measurement
   configuration (every write down the single-copy path, no adaptive
   policy) — the configuration the single-copy invariant is gated on. *)
let macro_ttcp ?(force_uio = false) ~mode ~total () =
  let wsize = min total 65536 in
  let adaptive = (not force_uio) && mode = Stack_mode.Single_copy in
  let tb = Testbed.create ~mode ~tcp_config:(macro_tcp_config ~adaptive) () in
  arm_series tb;
  let r = Ttcp.run ~tb ~wsize ~total ~force_uio ~adaptive ~verify:false () in
  deposit_rx_pipe tb.Testbed.b.Testbed.cab;
  (r.Ttcp.receiver.Measurement.throughput_mbit, r.Ttcp.sender_policy, total)

(* [rounds] request-response exchanges of [size]-byte messages with one
   outstanding request; returns (sim Mbit/s both directions, routing). *)
let macro_rpc ~mode ~size ~rounds () =
  let adaptive = mode = Stack_mode.Single_copy in
  let tb = Testbed.create ~mode ~tcp_config:(macro_tcp_config ~adaptive) () in
  let sim = tb.Testbed.sim in
  let paths =
    if adaptive then
      { Socket.default_paths with Socket.force_uio = false; adaptive = true }
    else Socket.default_paths
  in
  let finished = ref None in
  Testbed.establish_stream tb ~port:5002 ~a_paths:paths ~b_paths:paths
    (fun sa sb ->
      let a_space =
        Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"rpc"
      in
      let b_space =
        Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"rpc"
      in
      let req = Addr_space.alloc a_space size in
      let reply = Addr_space.alloc a_space size in
      let srv = Addr_space.alloc b_space size in
      Region.fill_pattern req ~seed:4242;
      let t0 = Sim.now sim in
      let rec serve () =
        Socket.read_exact sb srv (fun n ->
            if n > 0 then Socket.write sb srv (fun () -> serve ()))
      in
      serve ();
      let rec client i =
        if i >= rounds then begin
          finished :=
            Some (Simtime.sub (Sim.now sim) t0, Socket.path_policy sa);
          Socket.close sa
        end
        else
          Socket.write sa req (fun () ->
              Socket.read_exact sa reply (fun n ->
                  if n <> size then failwith "macro rpc: short reply"
                  else client (i + 1)))
      in
      client 0);
  Sim.run ~until:(Simtime.s 600.) sim;
  match !finished with
  | None -> failwith "macro rpc: did not complete"
  | Some (elapsed, policy) ->
      let bits = float_of_int (rounds * size * 2 * 8) in
      let mbit = bits /. Simtime.to_s elapsed /. 1e6 in
      (mbit, Option.map Path_policy.stats policy, rounds * size * 2)

(* Degraded-mode ttcp: 2% wire corruption plus one outboard-memory
   exhaustion episode, over a watchdog-enabled testbed.  The throughput
   and wall clock of this row are not gated (recovery work varies); its
   invariants hold the recovery report: data verified byte-identical, zero
   occupancy leaks after quiescence, and evidence that the fault plane
   actually fired (checksum failures caught, retransmissions healed
   them).  The fixed seed replays the identical storm every run. *)
let macro_ttcp_faulty () =
  let total = 1 lsl 20 in
  let plans ~seed:_ =
    Fault.plan ~site:"wire.corrupt" (Fault.Probability 0.02);
    Fault.plan ~site:"netmem.exhaust" (Fault.Once_at 40)
  in
  let r = Exp_soak.run_seed ~total ~plans 1995 in
  fault_json :=
    Some
      (Printf.sprintf
         "{ \"verified\": %b, \"completed\": %b, \"leaks\": %d, \
          \"retransmits\": %d, \"csum_failures_rx\": %d, \
          \"frames_corrupted\": %d, \"tx_recoveries\": %d, \
          \"sdma_timeouts\": %d, \"adaptor_resets\": %d, \
          \"netmem_failures\": %d, \"pin_fallbacks\": %d }"
         r.Exp_soak.verified r.Exp_soak.completed
         (List.length r.Exp_soak.leaks)
         r.Exp_soak.retransmits r.Exp_soak.csum_failures
         r.Exp_soak.frames_corrupted r.Exp_soak.tx_recoveries
         r.Exp_soak.sdma_timeouts r.Exp_soak.adaptor_resets
         r.Exp_soak.netmem_failures r.Exp_soak.pin_fallbacks);
  (r.Exp_soak.throughput_mbit, r.Exp_soak.policy, total)

(* RSS scaling row: 8 concurrent ttcp flows on the CPU-bound smp profile
   with a non-bottleneck link rate, so aggregate throughput tracks how
   many shard CPUs share the per-packet work.  The 1-shard twin is the
   serialized reference; the 4-shard row's invariant requires >= 2.5x
   its aggregate in the same run. *)
let macro_ttcp_parallel ~shards () =
  let total = 1 lsl 20 in
  let tb =
    Testbed.create ~profile:Host_profile.smp ~shards ~link_rate:1.25e9 ()
  in
  let r =
    Ttcp.run_parallel ~tb ~flows:8 ~wsize:(256 * 1024) ~total ~verify:false
      ()
  in
  deposit_rx_pipe tb.Testbed.b.Testbed.cab;
  (r.Ttcp.p_mbit, None, 8 * total)

(* Row invariants: [check row name f op rhs] is "macro.<row>.<name>",
   holding the row's own field [f] against [rhs]. *)

let macro_anchor = "ttcp-4K-unmodified"
let zero = const 0.
let sim = "sim_throughput_mbit"

let check ?warn ?scale row name f op rhs =
  invariant ?warn ?scale (Printf.sprintf "macro.%s.%s" row name) (field row f)
    op rhs

let within row name f lo hi =
  [
    check row (name ^ "_lo") f ">=" (const lo);
    check row (name ^ "_hi") f "<=" (const hi);
  ]

(* Small-transfer parity: when the policy routes small sends to the copy
   path both stacks do the same simulated work, so the single-copy row
   keeps at least 0.95x its unmodified twin's simulated throughput. *)
let parity row ~twin =
  [ check ~scale:0.95 row "parity" sim ">=" (field twin sim) ]

(* The receive copy-out pipeline ran: posts accepted and copy-out /
   auto-DMA overlap observed, not a silent synchronous drain. *)
let rx_pipe_live row =
  [
    check row "rx_pipe_posts" "rx_pipe.posts" ">" zero;
    check row "rx_pipe_overlap" "rx_pipe.overlap" ">" zero;
  ]

(* At 1 MByte the policy takes the single-copy path and the single-copy
   stack's simulated throughput is at least the unmodified stack's: the
   paper's headline crossover. *)
let bulk_single_copy row ~twin =
  check row "routes_uio" "routing.uio" ">" zero
  :: check row "crossover" sim ">=" (field twin sim)
  :: rx_pipe_live row

(* The paper's measurement configuration: exactly one copy per payload
   byte (the SDMA out of pinned user memory), no host copy and no host
   checksum on transmit. *)
let single_copy_ledger row =
  [
    check row "host_tx_copy_bytes" "touch.host_tx_copy_bytes" "==" zero;
    check row "host_tx_sum_bytes" "touch.host_tx_sum_bytes" "==" zero;
    check row "sdma_moves_payload" "touch.sdma_payload_bytes" "=="
      (field row "touch.payload_bytes");
    check row "tx_copies_per_byte" "touch.tx_copies_per_byte" "==" (const 1.);
    check row "tx_sums_per_byte" "touch.tx_sums_per_byte" "==" zero;
  ]
  @ within row "rx_copies_per_byte" "touch.rx_copies_per_byte" 0.95 1.15

(* The unmodified stack: two copies and one checksum per byte each way,
   no SDMA payload. *)
let two_copy_profile row =
  let w n = within row n ("touch." ^ n) in
  w "tx_copies_per_byte" 1.95 2.05
  @ w "tx_sums_per_byte" 0.95 1.05
  @ w "rx_copies_per_byte" 1.90 2.10
  @ w "rx_sums_per_byte" 0.95 1.10
  @ [ check row "sdma_payload_bytes" "touch.sdma_payload_bytes" "==" zero ]

(* Tracing cost, on deterministic figures of the traced twin: a fixed
   binary emits the same events and allocates the same words every run
   (500 events and 247 extra words per 1 MByte transfer, all of them
   the flight recorder's, spent building it: its ticks sample counters
   and count gauges and allocate nothing, and the tracer itself
   allocates none).  A trace point on a per-byte path multiplies the
   first; a closure per emit pushes the second past its ceiling, as
   did the recorder's six gauge columns while they boxed a float per
   tick (1,063 words).  The wall-clock ratio, whose run-to-run
   spread on a shared box is wider than any useful bound, only warns. *)
let tracing_cost row ~twin =
  let words r = field r "minor_words_per_run" in
  [
    check row "trace_events" "trace_events_per_run" "<=" (const 600.);
    invariant
      (Printf.sprintf "macro.%s.trace_words" row)
      (arith (words row) "-" (words twin))
      "<=" (const 1000.);
    check ~warn:true ~scale:1.5 row "wall_ratio" "ns_per_run" "<="
      (field twin "ns_per_run");
  ]

(* The fault row's recovery report: data byte-identical, the transfer
   complete, every pool back to baseline, and the storm demonstrably
   fired (checksum verify caught corruption, retransmission healed it). *)
let recovery row =
  [
    check row "verified" "fault.verified" "==" "true";
    check row "completed" "fault.completed" "==" "true";
    check row "no_leaks" "fault.leaks" "==" zero;
    check row "csum_failures" "fault.csum_failures_rx" ">" zero;
    check row "retransmits" "fault.retransmits" ">" zero;
  ]

(* What every row carries: a routing section; unless [pinned] is off
   (the fault row, whose recovery work varies), simulated throughput
   equal to the baseline's to the decimal and advisory wall drift
   against the anchor row; with [lat], p99 >= p50 on every latency
   histogram sampled in the run. *)
let row_invariants ~name ~pinned ~lat =
  let ns = "ns_per_run" in
  let lat_checks (h, hist) =
    if (not lat) || Obs.Histogram.count hist = 0 then []
    else
      let q x = Printf.sprintf "lat.%s.%s" h x in
      [
        check name (q "sampled") (q "count") ">" zero;
        check name (q "p99_ge_p50") (q "p99") ">=" (field name (q "p50"));
      ]
  in
  check name "routing" "routing.uio" ">=" zero
  :: (if not pinned then []
      else
        check name "sim_exact" sim "==" (base_field name sim)
        ::
        (if name = macro_anchor then []
         else
           drift_warns ("macro." ^ name) ~cur:(field name ns)
             ~anchor:(field macro_anchor ns) ~base:(base_field name ns)
             ~base_anchor:(base_field macro_anchor ns)))
  @ List.concat_map lat_checks Obs_lat.all

let macro ?(json = false) () =
  let measure ?(traced = false) ?(pinned = true) ?(lat = false)
      ?(gates = []) ~name ~iters run =
    (* Warm-up: fault in the pools, then measure with clean counters and
       a fresh data-touch ledger window. *)
    fault_json := None;
    rx_pipe_json := None;
    ignore (run ());
    Mbuf.Pool.reset ();
    Bufpool.reset_stats Bufpool.shared;
    (* Latency percentiles cover only the measured iterations. *)
    Obs_lat.reset ();
    if traced then begin
      (* The overhead row: tracer + flight recorder armed during the
         measured runs, so its figures against the untraced twin row are
         the combined instrumentation cost. *)
      Obs_trace.configure ~capacity:4096;
      Obs_trace.enable ();
      series_on := true
    end;
    let s0 = Obs_ledger.snapshot () in
    let times = Array.make iters 0. in
    let last = ref None in
    let w0 = Gc.minor_words () in
    for i = 0 to iters - 1 do
      let t0 = Unix.gettimeofday () in
      last := Some (run ());
      times.(i) <- Unix.gettimeofday () -. t0
    done;
    let per_run x = x /. float_of_int iters in
    let words = per_run (Gc.minor_words () -. w0) in
    let trace_events =
      if not traced then None
      else
        let emitted = Obs_trace.length () + Obs_trace.dropped () in
        Some (per_run (float_of_int emitted))
    in
    if traced then begin
      Obs_trace.disable ();
      series_on := false
    end;
    let mbit, routing, payload = Option.get !last in
    let d = Obs_ledger.since s0 in
    (* Median per-iteration time: wall-clock on a shared machine has
       heavy-tailed load spikes that would dominate a mean. *)
    Array.sort compare times;
    {
      row_name = name;
      row_ns = times.(iters / 2) *. 1e9;
      row_samples = Array.map (fun t -> t *. 1e9) times;
      row_words = words;
      row_trace_events = trace_events;
      row_mbit = mbit;
      row_mbuf = Mbuf.Pool.hit_rate ();
      row_frame = Bufpool.hit_rate Bufpool.shared;
      row_routing = routing;
      row_touch = Obs_ledger.report_json d ~payload:(payload * iters);
      row_lat = Obs_lat.summary_json ();
      row_fault = !fault_json;
      row_rx_pipe = !rx_pipe_json;
      row_invariants = row_invariants ~name ~pinned ~lat @ gates;
    }
  in
  let modes = [ Stack_mode.Single_copy; Stack_mode.Unmodified ] in
  let transfers = [ ("4K", 4096); ("64K", 65536); ("1M", 1 lsl 20) ] in
  let rpc_sizes = [ ("64B", 64); ("512B", 512); ("4K", 4096) ] in
  let ttcp_gates mode label name =
    let twin = Printf.sprintf "ttcp-%s-unmodified" label in
    match (mode, label) with
    | Stack_mode.Single_copy, "4K" ->
        (* The policy copies every small send. *)
        check name "routes_copy" "routing.copy" ">" zero
        :: check name "no_uio" "routing.uio" "<=" zero
        :: parity name ~twin
    | Stack_mode.Single_copy, "64K" ->
        [ check name "routes_uio" "routing.uio" ">" zero ]
    | Stack_mode.Single_copy, "1M" -> bulk_single_copy name ~twin
    | Stack_mode.Unmodified, "1M" -> rx_pipe_live name @ two_copy_profile name
    | _ -> []
  in
  let rpc_gates mode label name =
    match (mode, label) with
    | Stack_mode.Single_copy, ("64B" | "512B") ->
        parity name ~twin:(Printf.sprintf "rpc-%s-unmodified" label)
    | _ -> []
  in
  let rows =
    List.concat_map
      (fun mode ->
        let s = Stack_mode.to_string mode in
        List.map
          (fun (label, total) ->
            let name = Printf.sprintf "ttcp-%s-%s" label s in
            measure ~name ~lat:(total >= 1 lsl 20)
              ~gates:(ttcp_gates mode label name)
              ~iters:(if total >= 1 lsl 20 then 12 else 100)
              (macro_ttcp ~mode ~total))
          transfers
        @ List.map
            (fun (label, size) ->
              let name = Printf.sprintf "rpc-%s-%s" label s in
              measure ~name ~lat:true ~gates:(rpc_gates mode label name)
                ~iters:10
                (macro_rpc ~mode ~size ~rounds:64))
            rpc_sizes)
      modes
    @ [
        (* The paper's measurement configuration: the single-copy
           ledger is held exactly. *)
        measure ~name:"ttcp-64K-forced-uio" ~iters:50
          ~gates:(single_copy_ledger "ttcp-64K-forced-uio")
          (macro_ttcp ~force_uio:true ~mode:Stack_mode.Single_copy
             ~total:65536);
        (* Twin of ttcp-1M-single-copy with the packet tracer and the
           flight recorder armed; see [tracing_cost]. *)
        measure ~traced:true ~lat:true ~name:"ttcp-1M-single-copy-traced"
          ~iters:12
          ~gates:
            (tracing_cost "ttcp-1M-single-copy-traced"
               ~twin:"ttcp-1M-single-copy")
          (macro_ttcp ~mode:Stack_mode.Single_copy ~total:(1 lsl 20));
        measure ~name:"ttcp-1M-faulty" ~iters:8 ~pinned:false
          ~gates:(recovery "ttcp-1M-faulty") macro_ttcp_faulty;
        (* RSS scaling pair: the serialized reference and the 4-shard
           run held to >= 2.5x its aggregate. *)
        measure ~name:"ttcp-parallel-8x1M-1shard" ~iters:6
          (macro_ttcp_parallel ~shards:1);
        measure ~name:"ttcp-parallel-8x1M-4shard" ~iters:6
          ~gates:
            [
              check ~scale:2.5 "ttcp-parallel-8x1M-4shard" "shard_scaling" sim
                ">=" (field "ttcp-parallel-8x1M-1shard" sim);
            ]
          (macro_ttcp_parallel ~shards:4);
      ]
  in
  Tabulate.print_header
    "Macro benchmark (full stack, both paths; ttcp bulk + small-message RPC)";
  let widths = [ 24; 14; 12; 9; 9; 16 ] in
  Tabulate.print_row ~widths
    [ "workload"; "host ns/run"; "sim Mbit/s"; "mbuf hit"; "frame hit";
      "routing" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun r ->
      let routing =
        match r.row_routing with
        | None -> "-"
        | Some s ->
            Printf.sprintf "u:%d c:%d co:%dK" s.Path_policy.uio_routed
              s.Path_policy.copy_routed
              (s.Path_policy.cutover_bytes / 1024)
      in
      Tabulate.print_row ~widths
        [
          r.row_name;
          Printf.sprintf "%.0f" r.row_ns;
          Printf.sprintf "%.1f" r.row_mbit;
          Printf.sprintf "%.3f" r.row_mbuf;
          Printf.sprintf "%.3f" r.row_frame;
          routing;
        ])
    rows;
  if json then begin
    let file = out_path "BENCH_macro.json" in
    let oc = open_out file in
    output_string oc "{\n";
    List.iteri
      (fun i r ->
        (* Every row carries a routing section (zeros when no adaptive
           policy ran) so downstream tooling can select on it without
           probing for presence. *)
        let routing =
          match r.row_routing with
          | None ->
              ", \"routing\": { \"uio\": 0, \"copy\": 0, \"unaligned\": 0, \
               \"below_cutover\": 0, \"cold_pin\": 0, \"above_cutover\": 0, \
               \"explored\": 0, \"cutover_bytes\": 0 }"
          | Some s ->
              Printf.sprintf
                ", \"routing\": { \"uio\": %d, \"copy\": %d, \"unaligned\": \
                 %d, \"below_cutover\": %d, \"cold_pin\": %d, \
                 \"above_cutover\": %d, \"explored\": %d, \"cutover_bytes\": \
                 %d }"
                s.Path_policy.uio_routed s.Path_policy.copy_routed
                s.Path_policy.unaligned s.Path_policy.below_cutover
                s.Path_policy.cold_pin s.Path_policy.above_cutover
                s.Path_policy.explored s.Path_policy.cutover_bytes
        in
        let fault =
          match r.row_fault with
          | None -> ""
          | Some f -> Printf.sprintf ", \"fault\": %s" f
        in
        let rx_pipe =
          match r.row_rx_pipe with
          | None -> ""
          | Some p -> Printf.sprintf ", \"rx_pipe\": %s" p
        in
        let samples =
          String.concat ", "
            (Array.to_list
               (Array.map (Printf.sprintf "%.1f") r.row_samples))
        in
        let trace_events =
          match r.row_trace_events with
          | None -> ""
          | Some e -> Printf.sprintf ", \"trace_events_per_run\": %.1f" e
        in
        Printf.fprintf oc
          "  %S: { \"ns_per_run\": %.1f, \"ns_samples\": [%s], \
           \"minor_words_per_run\": %.1f%s, \"sim_throughput_mbit\": %.1f, \
           \"mbuf_pool_hit_rate\": %.4f, \"frame_pool_hit_rate\": %.4f%s, \
           \"touch\": %s, \"lat\": %s%s%s,\n    \"invariants\": %s }%s\n"
          r.row_name r.row_ns samples r.row_words trace_events r.row_mbit
          r.row_mbuf r.row_frame routing r.row_touch r.row_lat fault rx_pipe
          (invariants_json r.row_invariants)
          (if i = List.length rows - 1 then "" else ","))
      rows;
    output_string oc "}\n";
    close_out oc;
    Printf.printf "\n  wrote %s\n" file;
    (match !series_last with
    | Some s ->
        let sf = out_path "BENCH_series.json" in
        let oc = open_out sf in
        output_string oc (Obs_series.to_json s);
        output_string oc "\n";
        close_out oc;
        Printf.printf "  wrote %s (%d samples, %d dropped)\n" sf
          (Obs_series.length s) (Obs_series.dropped s)
    | None -> ())
  end;
  if !trace_mode then begin
    (* One forced-uio ttcp-64K run recorded end to end: the descriptor
       lifecycle (socket write -> sendq -> packetize -> seed -> SDMA ->
       doorbell -> interrupt -> rx adjust -> socket read) as a Chrome
       trace, plus the full metrics-registry dump from the same run. *)
    Obs_trace.configure ~capacity:8192;
    Obs_trace.enable ();
    ignore
      (macro_ttcp ~force_uio:true ~mode:Stack_mode.Single_copy ~total:65536
         ());
    Obs_trace.disable ();
    let tf = out_path "BENCH_trace.json" in
    let oc = open_out tf in
    output_string oc (Obs_trace.to_chrome ());
    output_string oc "\n";
    close_out oc;
    let rf = out_path "BENCH_obs.json" in
    let oc = open_out rf in
    output_string oc (Obs.to_json ());
    output_string oc "\n";
    close_out oc;
    Printf.printf "  wrote %s (%d events, %d dropped) and %s\n" tf
      (Obs_trace.length ()) (Obs_trace.dropped ()) rf
  end

(* ---------------- dispatch ---------------- *)

let json_mode = ref false

(* Wall-clock budgets the soak and server scenarios must fit on a CI
   runner; each artifact carries its own as an invariant. *)
let soak_budget_s = 60.
let server_budget_s = 420.

let run_target t =
  match (Targets.find t, t) with
  | Some run, _ -> run ()
  | None, "micro" -> micro ~json:!json_mode ()
  | None, "macro" -> macro ~json:!json_mode ()
  | None, "soak" ->
      (* Fault-storm soak over fixed seeds: each must finish verified
         with zero occupancy leaks.  Runs 5x the pre-timing-wheel event
         volume (10 MByte per seed vs the original 2) and reports the
         wall clock + event count; its invariants hold the O(1) timer
         core to a hard CI time budget.  The metrics-registry dump (with
         the "sim" timer-core section) is always written for the CI
         artifact. *)
      let bytes_per_seed = 10 * 1024 * 1024 in
      let t0 = Unix.gettimeofday () in
      let reports = Exp_soak.run_storm ~total:bytes_per_seed () in
      let wall = Unix.gettimeofday () -. t0 in
      Exp_soak.print reports;
      let ok = Exp_soak.all_ok reports in
      let events = Exp_soak.total_events reports in
      let file = out_path "BENCH_soak.json" in
      let oc = open_out file in
      let checks =
        [
          invariant "soak.ok" (path "ok") "==" "true";
          invariant "soak.wall_budget" (path "wall_s") "<="
            (const soak_budget_s);
          invariant "soak.events" (path "events") ">" (const 0.);
        ]
      in
      Printf.fprintf oc
        "{ \"ok\": %b, \"wall_s\": %.3f, \"seeds\": %d, \"bytes_per_seed\": \
         %d, \"events\": %d,\n  \"invariants\": %s }\n"
        ok wall (List.length reports) bytes_per_seed events
        (invariants_json checks);
      close_out oc;
      let rf = out_path "BENCH_soak_obs.json" in
      let oc = open_out rf in
      output_string oc (Obs.to_json ());
      output_string oc "\n";
      close_out oc;
      Printf.printf "\n  wrote %s and %s (%.1f s wall, %d events)\n" file rf
        wall events;
      if not ok then begin
        Printf.printf "  soak FAILED\n";
        exit 1
      end
      else Printf.printf "  soak ok (%d seeds)\n" (List.length reports)
  | None, "server" ->
      (* Overload-robustness macro scenario: the 100K-accept mixed server
         (RPC churn over 4 bulk flows), clean then under SYN flood.  Both
         rows must drain exactly to baseline; the flood row must keep the
         bulk flows at >= 0.8x the clean aggregate while the shed AND
         cookie counters engage; the artifact's invariants hold all of
         it, and the wall clock, to hard gates. *)
      let target = 100_000 in
      let t0 = Unix.gettimeofday () in
      let clean = Exp_server.run ~target () in
      Exp_server.print clean;
      (* The registry dump covers the flood row alone: every counter and
         histogram restarts here. *)
      Obs.reset ();
      let flood = Exp_server.run ~flood:true ~target () in
      Exp_server.print flood;
      let wall = Unix.gettimeofday () -. t0 in
      let row (r : Exp_server.result) =
        Printf.sprintf
          "{ \"flood\": %b, \"ok\": %b, \"target\": %d, \"accepted\": %d, \
           \"rpc_completed\": %d, \"client_retries\": %d, \"bulk_mbit\": \
           %.3f, \"syn_rcvd\": %d, \"cookies_sent\": %d, \
           \"cookies_validated\": %d, \"sheds\": %d, \"accept_p50_us\": %s, \
           \"accept_p99_us\": %s, \"leaks\": %d, \"elapsed_s\": %.3f, \
           \"events\": %d }"
          r.Exp_server.flood r.Exp_server.ok r.Exp_server.target
          r.Exp_server.accepted r.Exp_server.rpc_completed
          r.Exp_server.client_retries r.Exp_server.bulk_mbit
          r.Exp_server.syn_rcvd r.Exp_server.cookies_sent
          r.Exp_server.cookies_validated r.Exp_server.sheds
          (match r.Exp_server.accept_p50_us with
          | Some v -> Printf.sprintf "%.3f" v
          | None -> "null")
          (match r.Exp_server.accept_p99_us with
          | Some v -> Printf.sprintf "%.3f" v
          | None -> "null")
          (List.length r.Exp_server.leaks)
          r.Exp_server.elapsed_s r.Exp_server.events
      in
      let file = out_path "BENCH_server.json" in
      let oc = open_out file in
      (* rows.0 is the clean run, rows.1 the flood. *)
      let per_row (i, label, flood) =
        let f x = path (Printf.sprintf "rows.%d.%s" i x) in
        let n x = Printf.sprintf "server.%s.%s" label x in
        [
          invariant (n "flood") (f "flood") "==" (string_of_bool flood);
          invariant (n "ok") (f "ok") "==" "true";
          invariant (n "accepted") (f "accepted") ">=" (f "target");
          invariant (n "no_leaks") (f "leaks") "==" (const 0.);
          invariant (n "accept_sampled") (f "accept_p99_us") ">=" (const 0.);
        ]
      in
      let checks =
        invariant "server.rows" (path "rows.#") "==" (const 2.)
        :: List.concat_map per_row [ (0, "clean", false); (1, "flood", true) ]
        @ [
            invariant ~scale:0.8 "server.flood.bulk_floor"
              (path "rows.1.bulk_mbit") ">=" (path "rows.0.bulk_mbit");
            invariant "server.flood.sheds" (path "rows.1.sheds") ">" (const 0.);
            invariant "server.flood.cookies" (path "rows.1.cookies_sent") ">"
              (const 0.);
            invariant "server.wall_budget" (path "wall_s") "<="
              (const server_budget_s);
          ]
      in
      Printf.fprintf oc
        "{ \"wall_s\": %.3f, \"rows\": [ %s, %s ],\n  \"invariants\": %s }\n"
        wall (row clean) (row flood) (invariants_json checks);
      close_out oc;
      let rf = out_path "BENCH_server_obs.json" in
      let oc = open_out rf in
      output_string oc (Obs.to_json ~sections:[ "conn"; "lat"; "sim" ] ());
      output_string oc "\n";
      close_out oc;
      Printf.printf "\n  wrote %s and %s (%.1f s wall)\n" file rf wall;
      if not (clean.Exp_server.ok && flood.Exp_server.ok) then begin
        Printf.printf "  server FAILED\n";
        exit 1
      end
      else Printf.printf "  server ok (clean + flood)\n"
  | None, _ ->
      Printf.eprintf "unknown target %S\n" t;
      exit 2

let all_targets = Targets.all @ [ "micro"; "macro"; "soak"; "server" ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: rest ->
        json_mode := true;
        parse acc rest
    | "--trace" :: rest ->
        trace_mode := true;
        parse acc rest
    | "--out-dir" :: dir :: rest ->
        out_dir := dir;
        parse acc rest
    | [ "--out-dir" ] ->
        prerr_endline "--out-dir requires a directory argument";
        exit 2
    | t :: rest -> parse (t :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  if !out_dir <> "." && not (Sys.file_exists !out_dir) then
    Unix.mkdir !out_dir 0o755;
  let targets =
    match args with
    | [] | [ "all" ] -> all_targets
    | [ "paper" ] -> Targets.paper
    | ts -> ts
  in
  Printf.printf
    "Software Support for Outboard Buffering and Checksumming (SIGCOMM '95)\n\
     — simulation reproduction; targets: %s\n"
    (String.concat " " targets);
  List.iter run_target targets
