(* Tests for the measurement harness itself (guards against bench bitrot)
   plus the capture and fan-in facilities. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------- Capture ---------- *)

let test_capture_decodes_tcp () =
  let tb = Testbed.create () in
  let cap =
    Capture.attach ~sim:tb.Testbed.sim
      (Cab_driver.iface tb.Testbed.a.Testbed.driver)
  in
  ignore (Ttcp.run ~tb ~wsize:32768 ~total:(128 * 1024) ~verify:false ());
  let es = Dumps.capture cap in
  check_bool "captured packets" true (List.length es > 6);
  (match es with
  | (_, _, first) :: _ ->
      check_bool "first is the SYN" true (contains first "[S]");
      check_bool "timestamps increase" true
        (let rec mono last = function
           | [] -> true
           | (time, _, _) :: rest -> time >= last && mono time rest
         in
         mono 0. es)
  | [] -> Alcotest.fail "no packets");
  check_bool "tx and rx both seen" true
    (List.exists (fun (_, dir, _) -> dir = "send") es
    && List.exists (fun (_, dir, _) -> dir = "recv") es);
  check_bool "data segments decoded with lengths" true
    (List.exists (fun (_, _, summary) -> contains summary "len=32728") es)

(* ---------- experiment harness smoke tests ---------- *)

let test_fig_report_shape () =
  (* A two-point sweep keeps this fast while checking the plumbing. *)
  let r =
    Exp_figures.run ~sizes:[ 8192; 65536 ] ~min_total:(512 * 1024)
      ~profile:Host_profile.alpha400 ()
  in
  check_int "two points" 2 (List.length r.Exp_figures.points);
  List.iter
    (fun (p : Exp_figures.point) ->
      check_bool "throughputs positive" true
        (p.Exp_figures.unmod_tp > 0. && p.Exp_figures.smod_tp > 0.
        && p.Exp_figures.raw_tp > 0.);
      check_bool "utilizations in range" true
        (p.Exp_figures.unmod_util <= 1.0 && p.Exp_figures.smod_util <= 1.0))
    r.Exp_figures.points;
  (* At 64K the single-copy stack must already be more efficient. *)
  match List.rev r.Exp_figures.points with
  | last :: _ ->
      check_bool "single-copy wins at 64K" true
        (last.Exp_figures.smod_eff > last.Exp_figures.unmod_eff)
  | [] -> Alcotest.fail "no points"

let test_table2_fits_are_exact () =
  List.iter
    (fun (f : Exp_tables.vm_fit) ->
      check_bool
        (Printf.sprintf "%s base %.2f ~ %.2f" f.Exp_tables.op
           f.Exp_tables.base_us f.Exp_tables.paper_base)
        true
        (abs_float (f.Exp_tables.base_us -. f.Exp_tables.paper_base) < 0.6);
      check_bool
        (Printf.sprintf "%s slope %.2f ~ %.2f" f.Exp_tables.op
           f.Exp_tables.per_page_us f.Exp_tables.paper_per_page)
        true
        (abs_float (f.Exp_tables.per_page_us -. f.Exp_tables.paper_per_page)
        < 0.2))
    (Exp_tables.run_table2 ~profile:Host_profile.alpha400)

let test_analysis_matches_paper () =
  let a =
    Exp_tables.run_analysis ~profile:Host_profile.alpha400 ()
  in
  check_bool "unmodified estimate ~180" true
    (a.Exp_tables.est_unmod_eff > 165. && a.Exp_tables.est_unmod_eff < 195.);
  check_bool "single-copy estimate ~490" true
    (a.Exp_tables.est_smod_eff > 460. && a.Exp_tables.est_smod_eff < 520.);
  check_bool "per-byte shares bracket the paper" true
    (a.Exp_tables.unmod_per_byte_share > 0.75
    && a.Exp_tables.unmod_per_byte_share < 0.85
    && a.Exp_tables.smod_per_byte_share > 0.38
    && a.Exp_tables.smod_per_byte_share < 0.50)

let test_crossover_pinned () =
  (* The paper's central quantitative claim, pinned in the test suite:
     below the 8-16K crossover the unmodified stack is more efficient;
     above it the single-copy stack wins, by ~3x at large writes. *)
  let r =
    Exp_figures.run
      ~sizes:[ 8192; 16384; 262144 ]
      ~min_total:(1 lsl 20) ~profile:Host_profile.alpha400 ()
  in
  (match r.Exp_figures.points with
  | [ p8; p16; p256 ] ->
      check_bool "unmodified wins at 8K" true
        (p8.Exp_figures.unmod_eff > p8.Exp_figures.smod_eff);
      check_bool "single-copy wins at 16K" true
        (p16.Exp_figures.smod_eff > p16.Exp_figures.unmod_eff);
      let ratio = p256.Exp_figures.smod_eff /. p256.Exp_figures.unmod_eff in
      check_bool
        (Printf.sprintf "large-write ratio %.2f in [2.3, 3.6]" ratio)
        true
        (ratio > 2.3 && ratio < 3.6);
      check_bool "unmodified efficiency near the paper's 180" true
        (p256.Exp_figures.unmod_eff > 150. && p256.Exp_figures.unmod_eff < 200.)
  | _ -> Alcotest.fail "expected three points");
  Alcotest.(check (option (pair int int)))
    "crossover between 8K and 16K" (Some (8192, 16384))
    (Exp_figures.crossover r)

let test_scaling_monotone () =
  (* §1's motivation: the advantage grows with CPU speed. *)
  match Exp_scaling.run ~factors:[ 1.; 4. ] ~total:(2 * 1024 * 1024) () with
  | [ base; fast ] ->
      check_bool "advantage grows with CPU" true
        (fast.Exp_scaling.advantage > base.Exp_scaling.advantage *. 1.5);
      check_bool "unmodified hits the memory wall" true
        (fast.Exp_scaling.unmod_eff < base.Exp_scaling.unmod_eff *. 1.6)
  | _ -> Alcotest.fail "expected two rows"

let test_netmem_cliff () =
  match
    Exp_netmem.run ~pages_list:[ 128; 1024 ] ~total:(2 * 1024 * 1024) ()
  with
  | [ starved; ample ] ->
      check_bool "starved netmem fails allocations" true
        (starved.Exp_netmem.alloc_failures > 0);
      check_int "ample netmem never fails" 0 ample.Exp_netmem.alloc_failures;
      check_bool "throughput cliff" true
        (ample.Exp_netmem.throughput_mbit
        > starved.Exp_netmem.throughput_mbit *. 1.5)
  | _ -> Alcotest.fail "expected two rows"

let test_incast_modes_differ () =
  let run mode =
    (Exp_incast.run ~mode ~senders_list:[ 4 ] ~per_sender:(512 * 1024) ())
      .Exp_incast.rows
  in
  match (run Stack_mode.Unmodified, run Stack_mode.Single_copy) with
  | [ u ], [ m ] ->
      check_bool "unmodified receiver is CPU saturated" true
        (u.Exp_incast.rx_util > 0.9);
      check_bool "single-copy receiver has headroom" true
        (m.Exp_incast.rx_util < 0.7);
      check_bool "both move data" true
        (u.Exp_incast.aggregate_mbit > 40.
        && m.Exp_incast.aggregate_mbit > 40.)
  | _ -> Alcotest.fail "unexpected row counts"

let test_allpairs_hol_gap () =
  match
    Exp_incast.run_all_pairs ~hosts_list:[ 6 ] ~per_flow:(256 * 1024) ()
  with
  | [ r ] ->
      check_bool
        (Printf.sprintf "LC (%.1f) beats FIFO (%.1f) under contention"
           r.Exp_incast.lc_aggregate_mbit r.Exp_incast.fifo_aggregate_mbit)
        true
        (r.Exp_incast.lc_aggregate_mbit
        > r.Exp_incast.fifo_aggregate_mbit *. 1.2)
  | _ -> Alcotest.fail "unexpected row count"

let test_crossover_detector () =
  let mk wsize unmod_eff smod_eff =
    {
      Exp_figures.wsize;
      unmod_tp = 0.;
      unmod_util = 0.;
      unmod_eff;
      smod_tp = 0.;
      smod_util = 0.;
      smod_eff;
      raw_tp = 0.;
      unmod_rx_util = 0.;
      smod_rx_util = 0.;
    }
  in
  let report =
    {
      Exp_figures.profile = Host_profile.alpha400;
      points = [ mk 8192 160. 140.; mk 16384 170. 280.; mk 32768 175. 300. ];
    }
  in
  Alcotest.(check (option (pair int int)))
    "crossover found" (Some (8192, 16384))
    (Exp_figures.crossover report);
  Alcotest.(check (float 0.01))
    "ratio" (300. /. 175.)
    (Exp_figures.large_write_efficiency_ratio report)

(* ---------- Latency percentiles ---------- *)

(* A percentile of per-operation latencies is positive, ordered, and no
   longer than the run that produced the operations. *)
let check_percentiles what ~p50 ~p99 ~elapsed_ns =
  check_bool (what ^ ": p50 > 0") true (p50 > 0);
  check_bool (what ^ ": p50 <= p99") true (p50 <= p99);
  check_bool (what ^ ": p99 <= elapsed") true (float_of_int p99 <= elapsed_ns)

let test_ttcp_write_percentiles () =
  let tb = Testbed.create () in
  let r = Ttcp.run ~tb ~wsize:65536 ~total:(1 lsl 20) ~verify:false () in
  check_percentiles "ttcp write" ~p50:r.Ttcp.write_latency_p50
    ~p99:r.Ttcp.write_latency_p99
    ~elapsed_ns:(float_of_int r.Ttcp.sender.Measurement.elapsed)

let test_rpc_percentiles () =
  let reads = 16 in
  List.iter
    (fun (row : Exp_rpc.row) ->
      check_percentiles ("rpc " ^ row.Exp_rpc.mode) ~p50:row.Exp_rpc.latency_p50
        ~p99:row.Exp_rpc.latency_p99
        ~elapsed_ns:(float_of_int reads /. row.Exp_rpc.reads_per_s *. 1e9))
    (Exp_rpc.run ~reads ())

let () =
  Alcotest.run "harness"
    [
      ( "capture",
        [
          Alcotest.test_case "decodes tcp" `Quick test_capture_decodes_tcp;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "figure report shape" `Quick
            test_fig_report_shape;
          Alcotest.test_case "table2 exact" `Quick test_table2_fits_are_exact;
          Alcotest.test_case "analysis vs paper" `Quick
            test_analysis_matches_paper;
          Alcotest.test_case "crossover pinned" `Slow test_crossover_pinned;
          Alcotest.test_case "scaling monotone" `Slow test_scaling_monotone;
          Alcotest.test_case "netmem cliff" `Slow test_netmem_cliff;
          Alcotest.test_case "incast modes differ" `Slow
            test_incast_modes_differ;
          Alcotest.test_case "allpairs HOL gap" `Slow test_allpairs_hol_gap;
          Alcotest.test_case "crossover detector" `Quick
            test_crossover_detector;
        ] );
      ( "latency",
        [
          Alcotest.test_case "ttcp write percentiles" `Quick
            test_ttcp_write_percentiles;
          Alcotest.test_case "rpc percentiles" `Quick test_rpc_percentiles;
        ] );
    ]
