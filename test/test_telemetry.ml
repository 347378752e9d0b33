(* Telemetry plane (ISSUE 9): the quantile estimator against an exact
   oracle, the flight-recorder ring's delta/wraparound/alloc behaviour,
   and — over a real testbed transfer — the per-flow latency histograms
   and the simulated-CPU profiler's attribution invariant. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [n] increments of a registry counter. *)
let add c n =
  for _ = 1 to n do
    Obs.Counter.incr c
  done

(* ---------- Histogram.quantile ---------- *)

let test_quantile_empty () =
  let h = Obs.Histogram.create () in
  check_bool "empty histogram has no quantiles" true
    (Obs.Histogram.quantile h 0.5 = None)

let test_quantile_single_bucket () =
  (* Every observation in bucket 10 ([1024, 2048)): any quantile must
     interpolate inside that bucket. *)
  let h = Obs.Histogram.create () in
  for _ = 1 to 100 do
    Obs.Histogram.observe h 1500
  done;
  List.iter
    (fun q ->
      match Obs.Histogram.quantile h q with
      | None -> Alcotest.fail "quantile of a populated histogram"
      | Some est ->
          check_bool
            (Printf.sprintf "q=%.2f stays in the bucket (got %.1f)" q est)
            true
            (est > 1024. && est <= 2048.))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]

let test_quantile_overflow_bucket () =
  (* max_int lands in the top reachable bucket (61); the estimate must
     come back from there, not wrap or overflow. *)
  let h = Obs.Histogram.create () in
  Obs.Histogram.observe h max_int;
  Obs.Histogram.observe h 1;
  match Obs.Histogram.quantile h 1.0 with
  | None -> Alcotest.fail "quantile of a populated histogram"
  | Some est ->
      check_bool "p100 reaches the top bucket" true
        (est > float_of_int (1 lsl 61))

let test_quantile_clamps_q () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) [ 10; 20; 30 ];
  check_bool "q < 0 behaves as 0" true
    (Obs.Histogram.quantile h (-0.5) = Obs.Histogram.quantile h 0.0);
  check_bool "q > 1 behaves as 1" true
    (Obs.Histogram.quantile h 1.5 = Obs.Histogram.quantile h 1.0)

(* The estimator's contract: the estimate lands in the log2 bucket of
   the exact order statistic at rank floor(q * (n-1)) — i.e. relative
   error is bounded by one bucket width (a factor of 2). *)
let prop_quantile_vs_exact =
  QCheck.Test.make ~name:"quantile lands in the exact value's bucket"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 100) (int_range 1 (1 lsl 30)))
        (float_bound_inclusive 1.0))
    (fun (vs, q) ->
      QCheck.assume (vs <> []);
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.observe h) vs;
      let sorted = Array.of_list (List.sort compare vs) in
      let n = Array.length sorted in
      let exact = sorted.(int_of_float (q *. float_of_int (n - 1))) in
      match Obs.Histogram.quantile h q with
      | None -> false
      | Some est ->
          let b = Obs.Histogram.bucket_of exact in
          if b = 0 then est > 0. && est <= 2.
          else
            est >= float_of_int (1 lsl b) *. 0.999
            && est <= float_of_int (1 lsl (b + 1)) *. 1.001)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 100) (int_range 1 (1 lsl 30)))
        (float_bound_inclusive 1.0)
        (float_bound_inclusive 1.0))
    (fun (vs, q1, q2) ->
      QCheck.assume (vs <> []);
      let lo = min q1 q2 and hi = max q1 q2 in
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.observe h) vs;
      match (Obs.Histogram.quantile h lo, Obs.Histogram.quantile h hi) with
      | Some a, Some b -> a <= b
      | _ -> false)

(* ---------- Obs_series ---------- *)

let test_series_deltas_and_gauges () =
  let c = Obs.counter ~section:"tts_delta" ~name:"c" in
  let g = ref 0.0 and n = ref 0 in
  Obs.gauge ~section:"tts_delta" ~name:"g" (fun () -> !g);
  Obs.int_gauge ~section:"tts_delta" ~name:"n" (fun () -> !n);
  add c 100 (* pre-create counts must not leak into row 0 *);
  let s =
    Obs_series.create ~capacity:8 ~interval:1000
      ~metrics:[ ("tts_delta", "c"); ("tts_delta", "g"); ("tts_delta", "n") ]
  in
  add c 5;
  g := 1.5;
  n := 7;
  Obs_series.tick s ~now:1000;
  add c 3;
  g := 2.5;
  n := 4;
  Obs_series.tick s ~now:2000;
  check_int "two rows" 2 (Obs_series.length s);
  let rows = ref [] in
  Obs_series.iter s (fun ~time ~row -> rows := (time, row) :: !rows);
  match List.rev !rows with
  | [ (t1, r1); (t2, r2) ] ->
      check_int "three columns" 3 (Array.length r1);
      check_int "first timestamp" 1000 t1;
      check_int "second timestamp" 2000 t2;
      check_bool "counter column is the per-interval delta" true
        (r1.(0) = 5. && r2.(0) = 3.);
      check_bool "gauge column is the sampled value" true
        (r1.(1) = 1.5 && r2.(1) = 2.5);
      check_bool "count gauge column is the sampled value" true
        (r1.(2) = 7. && r2.(2) = 4.)
  | _ -> Alcotest.fail "expected exactly two rows"

let test_series_wraparound () =
  let c = Obs.counter ~section:"tts_wrap" ~name:"c" in
  let s =
    Obs_series.create ~capacity:3 ~interval:10
      ~metrics:[ ("tts_wrap", "c") ]
  in
  for i = 1 to 5 do
    add c i;
    Obs_series.tick s ~now:(i * 10)
  done;
  check_int "ring holds at most capacity" 3 (Obs_series.length s);
  check_int "two oldest rows overwritten" 2 (Obs_series.dropped s);
  let seen = ref [] in
  Obs_series.iter s (fun ~time ~row -> seen := (time, row.(0)) :: !seen);
  Alcotest.(check (list (pair int (float 0.))))
    "latest window survives, oldest-first"
    [ (30, 3.); (40, 4.); (50, 5.) ]
    (List.rev !seen)

let test_series_rejects_bad_metrics () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "unknown metric rejected" true (raises (fun () ->
      Obs_series.create ~capacity:4 ~interval:10
        ~metrics:[ ("no_such_section", "x") ]));
  check_bool "histogram source rejected" true (raises (fun () ->
      Obs_series.create ~capacity:4 ~interval:10
        ~metrics:[ ("lat", "rtt_ns") ]))

let test_series_to_json () =
  let c = Obs.counter ~section:"tts_json" ~name:"c" in
  let s =
    Obs_series.create ~capacity:4 ~interval:250
      ~metrics:[ ("tts_json", "c") ]
  in
  add c 3;
  Obs_series.tick s ~now:250;
  let json = Obs_series.to_json s in
  List.iter
    (fun affix ->
      check_bool (Printf.sprintf "export contains %S" affix) true
        (Astring.String.is_infix ~affix json))
    [ "\"interval_ns\": 250"; "\"tts_json/c\""; "[250, 3.0]"; "\"dropped\": 0" ]

let test_series_tick_alloc_free () =
  (* The recorder's claim: a tick over counters and count gauges is
     allocation-free in steady state (a float gauge column boxes its
     closure's return). *)
  let c = Obs.counter ~section:"tts_alloc" ~name:"c" in
  Obs.int_gauge ~section:"tts_alloc" ~name:"n" (fun () -> Obs.Counter.get c);
  let s =
    Obs_series.create ~capacity:64 ~interval:10
      ~metrics:[ ("tts_alloc", "c"); ("tts_alloc", "n") ]
  in
  Obs.Counter.incr c;
  Obs_series.tick s ~now:10;
  Obs_series.tick s ~now:20;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    Obs.Counter.incr c;
    Obs_series.tick s ~now:(30 + (i * 10))
  done;
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "10k ticks allocate < 64 words (got %.0f)" words)
    true (words < 64.)

(* ---------- host allocation on the two-copy datapath ---------- *)

(* The unmodified stack copies each payload byte into pooled mbufs, gathers
   it into network memory and copies the received tail into pooled
   storage, so once the pools are warm a transfer allocates nothing
   payload-sized.  Any [Bytes] over 256 words skips the minor heap, so a
   per-packet buffer shows up as direct major allocation: major words
   minus promoted words. *)
let test_two_copy_no_payload_alloc () =
  let total = 4 lsl 20 in
  let transfer tb =
    let r =
      Ttcp.run ~tb ~wsize:65536 ~total ~force_uio:false ~verify:false ()
    in
    check_int "payload delivered" total r.Ttcp.receiver_tcp.Tcp.bytes_rcvd
  in
  transfer (Testbed.create ~mode:Stack_mode.Unmodified ());
  let tb = Testbed.create ~mode:Stack_mode.Unmodified () in
  let before = Gc.quick_stat () in
  transfer tb;
  let after = Gc.quick_stat () in
  let direct =
    after.Gc.major_words -. before.Gc.major_words
    -. (after.Gc.promoted_words -. before.Gc.promoted_words)
  in
  let payload_words = float_of_int (total / (Sys.word_size / 8)) in
  check_bool
    (Printf.sprintf "direct major words %.0f < 1/8 of payload words %.0f"
       direct payload_words)
    true
    (direct < payload_words /. 8.)

(* ---------- latency capture + CPU profiler over a real transfer ---------- *)

let assert_attribution_exact tb =
  List.iter
    (fun (label, (node : Testbed.node)) ->
      let host = node.Testbed.stack.Netstack.host in
      Array.iter
        (fun sh ->
          let cpu = sh.Shard.cpu in
          check_int
            (Printf.sprintf "%s: attributed cycles == charged cycles" label)
            (Cpu.busy cpu) (Cpu.sites_total cpu))
        (Host.shards host))
    [ ("hostA", tb.Testbed.a); ("hostB", tb.Testbed.b) ]

let assert_lat_populated () =
  List.iter
    (fun (name, h) ->
      check_bool (Printf.sprintf "lat/%s sampled" name) true
        (Obs.Histogram.count h > 0);
      match
        (Obs.Histogram.quantile h 0.5, Obs.Histogram.quantile h 0.99)
      with
      | Some p50, Some p99 ->
          check_bool (Printf.sprintf "lat/%s p99 >= p50" name) true
            (p99 >= p50)
      | _ -> Alcotest.fail (Printf.sprintf "lat/%s has no quantiles" name))
    Obs_lat.all

let test_profile_and_latency_single_shard () =
  let tb = Testbed.create () in
  Obs_lat.reset ();
  let r = Ttcp.run ~tb ~wsize:65536 ~total:(1 lsl 20) ~verify:false () in
  check_int "no retransmissions on the clean link" 0 r.Ttcp.retransmits;
  (* Every charged cycle must land in exactly one site bucket: the
     attribution folds back to the CPU's own busy total, per shard. *)
  assert_attribution_exact tb;
  let cpu = (Host.shards tb.Testbed.a.Testbed.stack.Netstack.host).(0).Shard.cpu in
  check_bool "sender CPU did attributable work" true (Cpu.busy cpu > 0);
  check_bool "checksum site charged on the rx verify path" true
    (Cpu.site_charged cpu Cpu.Checksum >= 0);
  (* One accept-queue round trip so the accept_ns histogram samples. *)
  let tcp_b = tb.Testbed.b.Testbed.stack.Netstack.tcp in
  let l = Tcp.create_listener tcp_b ~port:7001 () in
  let peer =
    Tcp.connect tb.Testbed.a.Testbed.stack.Netstack.tcp ~dst:Testbed.addr_b
      ~dst_port:7001 ()
  in
  Sim.run ~until:(Simtime.add (Sim.now tb.Testbed.sim) (Simtime.ms 50.))
    tb.Testbed.sim;
  (match Tcp.accept l with
  | Some pcb ->
      Tcp.abort pcb;
      Tcp.abort peer;
      Tcp.close_listener l
  | None -> Alcotest.fail "accept queue empty after handshake");
  (* Connection setup, write->ACK, rx copy-out, RTT and accept fired. *)
  assert_lat_populated ()

let test_profile_exact_when_sharded () =
  let tb = Testbed.create ~profile:Host_profile.smp ~shards:4 () in
  Obs_lat.reset ();
  let _r = Ttcp.run ~tb ~wsize:65536 ~total:(1 lsl 19) ~verify:false () in
  (* The steered per-shard dispatch (Demux site) and the per-shard
     protocol work must still sum exactly on every shard CPU. *)
  assert_attribution_exact tb

let () =
  Alcotest.run "telemetry"
    [
      ( "quantile",
        [
          Alcotest.test_case "empty histogram" `Quick test_quantile_empty;
          Alcotest.test_case "single bucket" `Quick
            test_quantile_single_bucket;
          Alcotest.test_case "overflow bucket" `Quick
            test_quantile_overflow_bucket;
          Alcotest.test_case "clamps q" `Quick test_quantile_clamps_q;
          QCheck_alcotest.to_alcotest prop_quantile_vs_exact;
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
        ] );
      ( "series",
        [
          Alcotest.test_case "counter deltas and gauge samples" `Quick
            test_series_deltas_and_gauges;
          Alcotest.test_case "wraparound keeps latest window" `Quick
            test_series_wraparound;
          Alcotest.test_case "bad metrics rejected" `Quick
            test_series_rejects_bad_metrics;
          Alcotest.test_case "json export" `Quick test_series_to_json;
          Alcotest.test_case "tick is allocation-free" `Quick
            test_series_tick_alloc_free;
        ] );
      ( "host",
        [
          Alcotest.test_case "two-copy path allocates no payload buffers"
            `Quick test_two_copy_no_payload_alloc;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "attribution exact + latency sampled" `Quick
            test_profile_and_latency_single_shard;
          Alcotest.test_case "attribution exact across shards" `Quick
            test_profile_exact_when_sharded;
        ] );
    ]
