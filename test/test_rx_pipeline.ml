(* The receive-side copy-out pipeline: posted copy-outs complete in
   order, the engine's four descriptor slots bound its occupancy (excess
   posts park and are counted as stalls), copy-out
   genuinely overlaps the auto-DMA/verify of later arrivals, and a
   corrupted segment arriving mid-pipeline is healed by retransmission
   without disturbing already-posted deliveries. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- ordering oracle ---------- *)

(* Random write segmentation, random read caps: the receiver's buffer
   must end up byte-identical to the sender's.  This is
   the in-order-delivery oracle for the pipelined pump — a copy-out
   completing before an earlier one's bytes land, or a claim delivered at
   the wrong destination offset, corrupts the image. *)
let run_pipelined ~writes ~read_caps =
  let total = List.fold_left ( + ) 0 writes in
  if total = 0 then true
  else begin
    let tb = Testbed.create () in
    let finished = ref None in
    let paths =
      { Socket.default_paths with Socket.force_uio = false; adaptive = true }
    in
    Testbed.establish_stream tb ~port:5001 ~a_paths:paths ~b_paths:paths
      (fun sa sb ->
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"p" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"p" in
        let golden = Addr_space.alloc a_sp total in
        Region.fill_pattern golden ~seed:77;
        let dst = Addr_space.alloc b_sp total in
        let rec send off = function
          | [] -> Socket.close sa
          | w :: rest ->
              Socket.write sa (Region.sub golden ~off ~len:w) (fun () ->
                  send (off + w) rest)
        in
        let caps = ref read_caps in
        let next_cap () =
          match !caps with
          | [] -> 65536
          | c :: rest ->
              caps := rest;
              c
        in
        let rec recv got =
          if got >= total then
            finished := Some (Region.equal_contents golden dst)
          else begin
            let cap = min (next_cap ()) (total - got) in
            Socket.read sb (Region.sub dst ~off:got ~len:cap) (fun n ->
                if n = 0 then
                  finished := Some (Region.equal_contents golden dst)
                else recv (got + n))
          end
        in
        send 0 writes;
        recv 0);
    Sim.run ~until:(Simtime.s 120.) tb.Testbed.sim;
    match !finished with Some intact -> intact | None -> false
  end

let arb_pipeline_case =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (1 -- 10)
           (oneof [ 1 -- 200; 1000 -- 9000; 20000 -- 70000 ]))
        (list_size (0 -- 8) (1 -- 70000)))
    ~print:(fun (w, r) ->
      Printf.sprintf "writes=%s reads=%s"
        (String.concat "," (List.map string_of_int w))
        (String.concat "," (List.map string_of_int r)))

let prop_in_order_delivery =
  QCheck.Test.make ~name:"pipelined copy-outs deliver in order" ~count:40
    arb_pipeline_case
    (fun (writes, read_caps) -> run_pipelined ~writes ~read_caps)

(* ---------- depth bound ---------- *)

(* Five copy-outs posted at once on one adaptor: four take the engine's
   descriptor slots, the fifth parks and is counted as a stall, and it
   starts when a slot frees. *)
let test_depth_bound () =
  let sim = Sim.create () in
  let cab =
    Cab.create ~sim ~profile:Host_profile.alpha400 ~name:"cab"
      ~netmem_pages:16 ~hippi_addr:2
      ~transmit:(fun _ ~dst:_ ~channel:_ -> ())
      ()
  in
  let got = ref None in
  Cab.set_batch_interrupt_handler cab (fun burst n ->
      for i = 0 to n - 1 do
        match burst.(i) with
        | Cab.Rx_packet info -> got := Some info
        | Cab.Sdma_done -> ()
      done);
  Cab.deliver cab (Bytes.make 8192 'x');
  Sim.run sim;
  let info = Option.get !got in
  let done_ = ref 0 in
  for i = 0 to 4 do
    Cab.sdma_copy_out cab info.Cab.rx_pkt ~off:(i * 512) ~len:512
      ~dst:(Netif.To_kernel (Bytes.create 512, 0))
      ~interrupt:false
      ~on_complete:(fun () -> incr done_)
  done;
  let s = Cab.rx_pipe_stats cab in
  check_int "depth readable" 4 s.Cab.rx_pipe_depth;
  check_int "five posts accepted" 5 s.Cab.rx_pipe_posts;
  check_int "four slots busy" 4 s.Cab.rx_pipe_hwm;
  check_int "the fifth parked" 1 s.Cab.rx_pipe_stalls;
  Sim.run sim;
  check_int "every copy-out completed" 5 !done_;
  check_int "high-water mark respects the bound" 4 s.Cab.rx_pipe_hwm;
  Cab.free cab info.Cab.rx_pkt

(* ---------- overlap ---------- *)

let test_overlap_occurs () =
  let tb = Testbed.create () in
  let r =
    Ttcp.run ~tb ~wsize:65536 ~total:(1 lsl 20) ~force_uio:false
      ~adaptive:true ~verify:true ()
  in
  let s = Cab.rx_pipe_stats tb.Testbed.b.Testbed.cab in
  check_bool "transfer verified" true r.Ttcp.verified;
  check_bool "copy-outs were posted" true (s.Cab.rx_pipe_posts > 0);
  check_bool "pipeline ran at least two deep" true (s.Cab.rx_pipe_hwm >= 2);
  check_bool "copy-out overlapped auto-DMA/verify" true
    (s.Cab.rx_pipe_overlap > 0);
  check_int "no stalls at the default depth" 0 s.Cab.rx_pipe_stalls

(* ---------- corruption mid-pipeline ---------- *)

let test_corrupt_mid_pipeline () =
  let tb = Testbed.create ~watchdog:(Simtime.us 500.) () in
  Fault.arm ~seed:1995;
  Fault.plan ~site:"wire.corrupt" (Fault.Probability 0.05);
  let r =
    Ttcp.run ~tb ~wsize:65536 ~total:(2 lsl 20) ~force_uio:false
      ~adaptive:true ~verify:true ()
  in
  Fault.disarm ();
  let s = Cab.rx_pipe_stats tb.Testbed.b.Testbed.cab in
  (* The only planned site, so the plane's fire count is its own. *)
  check_bool "corruption was injected" true
    (Obs.value ~section:"fault" ~name:"fires" > 0.);
  check_bool "retransmission healed the stream" true (r.Ttcp.retransmits > 0);
  check_bool "corrupted data never delivered" true r.Ttcp.verified;
  (* The heal happened while the pipeline was live, not by draining it. *)
  check_bool "pipeline stayed active through the faults" true
    (s.Cab.rx_pipe_posts > 0 && s.Cab.rx_pipe_overlap > 0)

let () =
  Alcotest.run "rx_pipeline"
    [
      ( "ordering",
        [ QCheck_alcotest.to_alcotest prop_in_order_delivery ] );
      ( "engine",
        [
          Alcotest.test_case "depth bounds outstanding posts" `Quick
            test_depth_bound;
          Alcotest.test_case "copy-out overlaps auto-DMA" `Quick
            test_overlap_occurs;
          Alcotest.test_case "corruption healed mid-pipeline" `Quick
            test_corrupt_mid_pipeline;
        ] );
    ]
