(* Focused tests for the copy-semantics socket layer: path-selection
   statistics, blocking behaviour, pin-cache interaction, the §4.5
   fix-up path, datagram sockets, and misuse handling. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let force_uio = { Socket.default_paths with Socket.force_uio = true }

let with_stream ?mode ?tcp_config ?a_paths f =
  let tb = Testbed.create ?mode ?tcp_config () in
  Testbed.establish_stream tb ~port:5001 ?a_paths (fun sa sb -> f tb sa sb);
  tb

let test_write_blocks_counted () =
  (* A sender that outruns the receiver must park on buffer space at
     least once; the stat proves the blocking path ran. *)
  let total = 4 * 1024 * 1024 in
  let wsize = 262144 in
  let finished = ref false in
  let sa_ref = ref None in
  let tb =
    with_stream ~a_paths:force_uio
      (* A small send buffer slices each write into several appends, so
         the writer must park on buffer space between them — the
         pipelined receive path drains whole reads too fast for a large
         sendq to ever fill. *)
      ~tcp_config:(fun c -> { c with Tcp.snd_buf = 65536 })
      (fun tb sa sb ->
        sa_ref := Some sa;
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s" in
        let src = Addr_space.alloc a_sp wsize in
        let dst = Addr_space.alloc b_sp wsize in
        let rec send n =
          if n >= total then Socket.close sa
          else Socket.write sa src (fun () -> send (n + wsize))
        in
        let rec recv n =
          if n >= total then finished := true
          else
            (* A deliberately slow reader: extra delay per read.  (20 ms
               per 256 KByte ~ 100 Mbit/s, well under what the pipelined
               receive path can absorb, so the sender must park.) *)
            ignore
              (Sim.after tb.Testbed.sim (Simtime.ms 20.) (fun () ->
                   Socket.read_exact sb dst (fun k ->
                       if k = 0 then finished := true else recv (n + k))))
        in
        send 0;
        recv 0)
  in
  Sim.run ~until:(Simtime.s 60.) tb.Testbed.sim;
  check_bool "finished" true !finished;
  let st = Socket.stats (Option.get !sa_ref) in
  check_bool "writer blocked at least once" true (st.Socket.write_blocks > 0);
  check_int "all bytes counted" total st.Socket.bytes_written

let test_read_blocks_counted () =
  let finished = ref false in
  let sb_ref = ref None in
  let tb =
    with_stream (fun tb sa sb ->
        sb_ref := Some sb;
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s" in
        let src = Addr_space.alloc a_sp 8192 in
        let dst = Addr_space.alloc b_sp 8192 in
        (* Reader first; writer only after 10 ms: the read must block. *)
        Socket.read_exact sb dst (fun n -> finished := n = 8192);
        ignore
          (Sim.after tb.Testbed.sim (Simtime.ms 10.) (fun () ->
               Socket.write sa src (fun () -> ()))))
  in
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  check_bool "read completed" true !finished;
  check_bool "reader blocked" true
    ((Socket.stats (Option.get !sb_ref)).Socket.read_blocks > 0)

let test_align_fixup_stats () =
  let paths = { force_uio with Socket.align_fixup = true } in
  let finished = ref false in
  let sa_ref = ref None in
  let tb =
    with_stream ~a_paths:paths (fun tb sa sb ->
        sa_ref := Some sa;
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s" in
        let src = Addr_space.alloc_at_offset a_sp ~page_offset:1 65536 in
        let dst = Addr_space.alloc b_sp 65536 in
        Region.fill_pattern src ~seed:3;
        Socket.write sa src (fun () -> Socket.close sa);
        Socket.read_exact sb dst (fun n ->
            finished := n = 65536 && Region.equal_contents src dst))
  in
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  check_bool "data intact through the fix-up" true !finished;
  let st = Socket.stats (Option.get !sa_ref) in
  check_int "one fix-up" 1 st.Socket.align_fixups;
  check_bool "bulk went UIO" true (st.Socket.uio_writes >= 1);
  check_int "no plain fallback" 0 st.Socket.unaligned_fallbacks

let test_write_after_peer_gone () =
  (* Writing into a connection whose peer aborted must complete the
     continuation (data lost, like a real reset) rather than hang. *)
  let wrote = ref 0 in
  let tb =
    with_stream ~a_paths:force_uio (fun tb sa sb ->
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
        let src = Addr_space.alloc a_sp 65536 in
        Tcp.abort (Socket.pcb sb);
        ignore
          (Sim.after tb.Testbed.sim (Simtime.ms 50.) (fun () ->
               Socket.write sa src (fun () -> incr wrote))))
  in
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  check_int "write continuation ran" 1 !wrote

let test_two_sockets_one_host () =
  (* Two concurrent streams between the same pair of hosts, one in each
     direction, sharing CPUs and adaptors. *)
  let tb = Testbed.create () in
  let a = tb.Testbed.a.Testbed.stack and b = tb.Testbed.b.Testbed.stack in
  let done1 = ref false and done2 = ref false in
  let total = 512 * 1024 in
  Tcp.listen b.Netstack.tcp ~port:7001 ~on_accept:(fun pcb ->
      let space = Netstack.make_space b ~name:"s1" in
      let sock = Socket.create ~host:b.Netstack.host ~space ~proc:"s1" pcb in
      let sp = Netstack.make_space b ~name:"r1" in
      let buf = Addr_space.alloc sp total in
      Socket.read_exact sock buf (fun n -> done1 := n = total));
  Tcp.listen a.Netstack.tcp ~port:7002 ~on_accept:(fun pcb ->
      let space = Netstack.make_space a ~name:"s2" in
      let sock = Socket.create ~host:a.Netstack.host ~space ~proc:"s2" pcb in
      let sp = Netstack.make_space a ~name:"r2" in
      let buf = Addr_space.alloc sp total in
      Socket.read_exact sock buf (fun n -> done2 := n = total));
  let start stack dst port =
    let pcb = ref None in
    pcb :=
      Some
        (Tcp.connect stack.Netstack.tcp ~dst ~dst_port:port
           ~on_established:(fun () ->
             let sp = Netstack.make_space stack ~name:"w" in
             let sock =
               Socket.create ~host:stack.Netstack.host ~space:sp ~proc:"w"
                 ~paths:force_uio (Option.get !pcb)
             in
             let buf = Addr_space.alloc sp total in
             Socket.write sock buf (fun () -> Socket.close sock))
           ())
  in
  start a Testbed.addr_b 7001;
  start b Testbed.addr_a 7002;
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  check_bool "stream 1 done" true !done1;
  check_bool "stream 2 done" true !done2

(* ---------- adaptive path policy ---------- *)

let check_route msg expected got = check_bool msg true (expected = got)

let test_path_policy_decide () =
  (* Defaults: cutover 16384, cold_shift 1 (cold threshold 32768). *)
  let p = Path_policy.create () in
  check_route "unaligned always copies"
    (Path_policy.Copy, Path_policy.Unaligned)
    (Path_policy.decide p ~len:65536 ~aligned:false ~pin_warm:true);
  check_route "small write copies"
    (Path_policy.Copy, Path_policy.Below_cutover)
    (Path_policy.decide p ~len:4096 ~aligned:true ~pin_warm:true);
  check_route "warm mid-size goes single-copy"
    (Path_policy.Uio, Path_policy.Above_cutover)
    (Path_policy.decide p ~len:16384 ~aligned:true ~pin_warm:true);
  check_route "cold mid-size copies (pin cost not amortized)"
    (Path_policy.Copy, Path_policy.Cold_pin)
    (Path_policy.decide p ~len:16384 ~aligned:true ~pin_warm:false);
  check_route "cold large clears the handicap"
    (Path_policy.Uio, Path_policy.Above_cutover)
    (Path_policy.decide p ~len:65536 ~aligned:true ~pin_warm:false)

let test_path_policy_refines () =
  (* Uio measured cheaper at 4K: the cutover falls to that bucket. *)
  let p = Path_policy.create () in
  for _ = 1 to 4 do
    Path_policy.observe p ~route:Path_policy.Uio ~len:4096
      ~cost:(Simtime.us 10.);
    Path_policy.observe p ~route:Path_policy.Copy ~len:4096
      ~cost:(Simtime.us 50.)
  done;
  check_int "cutover fell to the winning bucket" 4096 (Path_policy.cutover p);
  (* Copy measured cheaper at 64K: the cutover is pushed above 64K. *)
  let p = Path_policy.create () in
  for _ = 1 to 4 do
    Path_policy.observe p ~route:Path_policy.Uio ~len:65536
      ~cost:(Simtime.us 500.);
    Path_policy.observe p ~route:Path_policy.Copy ~len:65536
      ~cost:(Simtime.us 50.)
  done;
  check_bool "cutover pushed above the losing bucket" true
    (Path_policy.cutover p > 65536);
  (* Clamps: evidence at 64B cannot drag the cutover below min_cutover. *)
  let p = Path_policy.create () in
  for _ = 1 to 4 do
    Path_policy.observe p ~route:Path_policy.Uio ~len:64
      ~cost:(Simtime.us 1.);
    Path_policy.observe p ~route:Path_policy.Copy ~len:64
      ~cost:(Simtime.us 9.)
  done;
  check_int "clamped at min_cutover" 1024 (Path_policy.cutover p)

let test_path_policy_explore () =
  let p = Path_policy.create () in
  let explored = ref [] in
  for i = 1 to 64 do
    let route, reason =
      Path_policy.decide p ~len:4096 ~aligned:true ~pin_warm:true
    in
    if reason = Path_policy.Explore then begin
      explored := i :: !explored;
      (* 4K normally copies, so the probe takes the other road. *)
      check_route "probe flips the route" Path_policy.Uio route
    end
  done;
  Alcotest.(check (list int))
    "every 16th eligible decision explores" [ 16; 32; 48; 64 ]
    (List.rev !explored);
  check_int "stats agree" 4 (Path_policy.stats p).Path_policy.explored;
  (* Exploration never overrides the alignment constraint, the 16th and
     32nd decisions included. *)
  let p = Path_policy.create () in
  for _ = 1 to 32 do
    let route, _ =
      Path_policy.decide p ~len:65536 ~aligned:false ~pin_warm:true
    in
    check_route "unaligned never explored onto the DMA path" Path_policy.Copy
      route
  done

let test_adaptive_routing_end_to_end () =
  (* One adaptive socket sends four writes that must route differently:
     4K aligned -> copy (below cutover), 64K aligned -> single-copy
     (twice: cold then pin-warm), 4K at an odd offset -> copy
     (unaligned).  Data must arrive byte-identical on every route with
     no checksum failures. *)
  let adaptive =
    { Socket.default_paths with Socket.force_uio = false; adaptive = true }
  in
  let sa_ref = ref None and sb_ref = ref None in
  let reads_ok = ref 0 in
  let tb =
    with_stream ~a_paths:adaptive (fun tb sa sb ->
        sa_ref := Some sa;
        sb_ref := Some sb;
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s" in
        let small = Addr_space.alloc a_sp 4096 in
        let big = Addr_space.alloc a_sp 65536 in
        let odd = Addr_space.alloc_at_offset a_sp ~page_offset:1 4096 in
        Region.fill_pattern small ~seed:1;
        Region.fill_pattern big ~seed:2;
        Region.fill_pattern odd ~seed:3;
        Socket.write sa small (fun () ->
            Socket.write sa big (fun () ->
                Socket.write sa big (fun () ->
                    Socket.write sa odd (fun () -> Socket.close sa))));
        let dst_small = Addr_space.alloc b_sp 4096 in
        let dst_big = Addr_space.alloc b_sp 65536 in
        let expect src dst k =
          Socket.read_exact sb dst (fun n ->
              if n = Region.length dst && Region.equal_contents src dst then
                incr reads_ok;
              k ())
        in
        expect small dst_small (fun () ->
            expect big dst_big (fun () ->
                expect big dst_big (fun () ->
                    expect odd dst_small (fun () -> ())))))
  in
  Sim.run ~until:(Simtime.s 60.) tb.Testbed.sim;
  check_int "all four transfers byte-identical" 4 !reads_ok;
  let sa = Option.get !sa_ref and sb = Option.get !sb_ref in
  let st = Socket.stats sa in
  check_int "two writes took the copy path" 2 st.Socket.copy_writes;
  check_int "two writes took the single-copy path" 2 st.Socket.uio_writes;
  check_int "odd buffer fell back" 1 st.Socket.unaligned_fallbacks;
  let ps = Path_policy.stats (Option.get (Socket.path_policy sa)) in
  check_int "policy routed two uio" 2 ps.Path_policy.uio_routed;
  check_int "policy routed two copy" 2 ps.Path_policy.copy_routed;
  check_int "one unaligned decision" 1 ps.Path_policy.unaligned;
  check_int "one below-cutover decision" 1 ps.Path_policy.below_cutover;
  check_int "two above-cutover decisions" 2 ps.Path_policy.above_cutover;
  check_int "every send reported a cost" 4
    (ps.Path_policy.uio_observed + ps.Path_policy.copy_observed);
  check_int "no receive checksum failures" 0
    (Tcp.pcb_stats (Socket.pcb sb)).Tcp.csum_failures_rx

let test_descriptor_coalescing () =
  (* An in-kernel sender (direct sosend_append, so no copy-semantics
     blocking between writes) queues sixteen 4K descriptor writes
     back-to-back.  With [coalesce_descriptors] the sendq links them
     into one symbolic chain and packetization cuts full-MSS segments
     across write boundaries — fewer segments on the wire, same bytes,
     no checksum failures. *)
  let wsize = 4096 and count = 16 in
  let run coalesce =
    let sa_ref = ref None and sb_ref = ref None in
    let ok = ref false in
    let tb =
      with_stream
        ~tcp_config:(fun c -> { c with Tcp.coalesce_descriptors = coalesce })
        (fun tb sa sb ->
          sa_ref := Some sa;
          sb_ref := Some sb;
          let a_sp =
            Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s"
          in
          let b_sp =
            Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s"
          in
          let src = Addr_space.alloc a_sp (wsize * count) in
          let dst = Addr_space.alloc b_sp (wsize * count) in
          Region.fill_pattern src ~seed:7;
          let pcb = Socket.pcb sa in
          for i = 0 to count - 1 do
            let m =
              Mbuf.make_uio
                ~region:(Region.sub src ~off:(i * wsize) ~len:wsize)
                ~notify:None
            in
            match Tcp.sosend_append pcb ~proc:"ksend" m with
            | Ok () -> ()
            | Error e -> Alcotest.fail e
          done;
          Socket.read_exact sb dst (fun n ->
              ok := n = wsize * count && Region.equal_contents src dst))
    in
    Sim.run ~until:(Simtime.s 60.) tb.Testbed.sim;
    check_bool "all bytes byte-identical at the receiver" true !ok;
    check_int "no receive checksum failures" 0
      (Tcp.pcb_stats (Socket.pcb (Option.get !sb_ref))).Tcp.csum_failures_rx;
    let st = Tcp.pcb_stats (Socket.pcb (Option.get !sa_ref)) in
    (st.Tcp.segs_sent, st.Tcp.descriptor_merges)
  in
  let segs_merged, merges = run true in
  let segs_plain, no_merges = run false in
  check_bool "writes were linked into symbolic chains" true (merges > 0);
  check_int "paper configuration never merges" 0 no_merges;
  check_bool "coalescing cut the segment count" true (segs_merged < segs_plain)

let test_pin_cache_shared_across_write_and_read () =
  (* One socket both sends and receives through its pin cache; the cache
     must not interfere across directions. *)
  let ok = ref false in
  let tb =
    with_stream ~a_paths:force_uio (fun tb sa sb ->
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s" in
        let out = Addr_space.alloc a_sp 65536 in
        let echo = Addr_space.alloc b_sp 65536 in
        let back = Addr_space.alloc a_sp 65536 in
        Region.fill_pattern out ~seed:9;
        Socket.write sa out (fun () -> ());
        Socket.read_exact sb echo (fun _ ->
            Socket.write sb echo (fun () -> ()));
        Socket.read_exact sa back (fun n ->
            ok := n = 65536 && Region.equal_contents out back))
  in
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  check_bool "echo roundtrip intact" true !ok

(* Two sockets share one address space and each writes one buffer that
   [buffers] makes; [second_hits] is whether the second write found its
   buffer in the space's pin cache.  The receivers wire uncached, so
   every pin-cache count below is the senders'. *)
let sockets_share_space_pins ~buffers ~second_hits () =
  let tb = Testbed.create () in
  let a = tb.Testbed.a.Testbed.stack and b = tb.Testbed.b.Testbed.stack in
  let wsize = 65536 in
  let received = ref 0 in
  Tcp.listen b.Netstack.tcp ~port:7001 ~on_accept:(fun pcb ->
      let sock =
        Socket.create ~host:b.Netstack.host
          ~space:(Netstack.make_space b ~name:"srv")
          ~proc:"srv"
          ~paths:{ Socket.default_paths with Socket.use_pin_cache = false }
          pcb
      in
      let buf = Addr_space.alloc (Netstack.make_space b ~name:"rd") wsize in
      Socket.read_exact sock buf (fun n -> received := !received + n));
  let space = Netstack.make_space a ~name:"app" in
  let buf1, buf2 = buffers a space wsize in
  Region.fill_pattern buf1 ~seed:5;
  Region.fill_pattern buf2 ~seed:6;
  let counter name = int_of_float (Obs.value ~section:"pin_cache" ~name) in
  let hits0 = counter "hits" and misses0 = counter "misses" in
  let connect k =
    let pcb = ref None in
    pcb :=
      Some
        (Tcp.connect a.Netstack.tcp ~dst:Testbed.addr_b ~dst_port:7001
           ~on_established:(fun () ->
             k
               (Socket.create ~host:a.Netstack.host ~space ~proc:"app"
                  ~paths:force_uio (Option.get !pcb)))
           ())
  in
  let misses_after_first = ref (-1) in
  connect (fun s1 ->
      Socket.write s1 buf1 (fun () ->
          misses_after_first := counter "misses" - misses0;
          connect (fun s2 -> Socket.write s2 buf2 (fun () -> ()))));
  Sim.run ~until:(Simtime.s 5.) tb.Testbed.sim;
  check_int "both writes arrived" (2 * wsize) !received;
  check_int "the first socket's write missed" 1 !misses_after_first;
  let hits = if second_hits then 1 else 0 in
  check_int "misses" (2 - hits) (counter "misses" - misses0);
  check_int "hits" hits (counter "hits" - hits0)

(* Pins belong to the address space: a second socket's first write of
   a buffer the first socket already wired is a hit, with no pin
   charged. *)
let test_sockets_share_space_pins =
  sockets_share_space_pins ~second_hits:true ~buffers:(fun _ space wsize ->
      let buf = Addr_space.alloc space wsize in
      (buf, buf))

(* Two other spaces each allocate a buffer at the same offset of their
   own windows, so at distinct vaddrs: wired through the sockets' space,
   the second is a different buffer and misses. *)
let test_equal_vaddrs_do_not_share_pins =
  sockets_share_space_pins ~second_hits:false ~buffers:(fun a _ wsize ->
      let alloc () =
        Addr_space.alloc (Netstack.make_space a ~name:"buf") wsize
      in
      let b1 = alloc () in
      let b2 = alloc () in
      assert (Region.vaddr b1 <> Region.vaddr b2);
      (b1, b2))

(* ---------- one reader per socket ---------- *)

let raises_invalid_arg f =
  match f () with
  | () -> false
  | exception Invalid_argument _ -> true

let test_second_reader_blocked () =
  (* The first read parks on an empty stream; a second one is refused,
     and the first still completes once data arrives. *)
  let refused = ref false and got = ref 0 in
  let tb =
    with_stream (fun tb sa sb ->
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s" in
        let src = Addr_space.alloc a_sp 512 in
        let dst = Addr_space.alloc b_sp 512 in
        Socket.read_exact sb dst (fun n -> got := n);
        ignore
          (Sim.after tb.Testbed.sim (Simtime.ms 5.) (fun () ->
               check_int "first reader parked" 1
                 (Socket.stats sb).Socket.read_blocks;
               refused :=
                 raises_invalid_arg (fun () ->
                     Socket.read sb dst (fun _ -> ()));
               Socket.write sa src ignore)))
  in
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  check_bool "second read refused" true !refused;
  check_int "first read completed" 512 !got

let test_second_reader_data_queued () =
  (* Data is already queued: the first read would complete without
     parking, but until it has returned a second read is refused; one
     issued from its continuation is accepted. *)
  let refused = ref false and first = ref 0 and second = ref 0 in
  let tb =
    with_stream (fun tb sa sb ->
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s" in
        let src = Addr_space.alloc a_sp 1024 in
        let dst = Addr_space.alloc b_sp 512 in
        Socket.write sa src ignore;
        ignore
          (Sim.after tb.Testbed.sim (Simtime.ms 5.) (fun () ->
               check_bool "data queued" true (Socket.readable sb);
               Socket.read_exact sb dst (fun n ->
                   first := n;
                   Socket.read_exact sb dst (fun n -> second := n));
               refused :=
                 raises_invalid_arg (fun () ->
                     Socket.read_exact sb dst (fun _ -> ())))))
  in
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  check_bool "concurrent read refused" true !refused;
  check_int "first read" 512 !first;
  check_int "read from the continuation" 512 !second

(* ---------- no retention ---------- *)

(* A finished call leaves nothing of the caller's reachable from the
   socket: the region and continuation of a completed read, an EOF read
   and a copy-route write are collected once the caller drops them. *)
let test_no_retention () =
  let collected = ref 0 and probed = ref 0 in
  let probe v =
    incr probed;
    Gc.finalise (fun _ -> incr collected) v
  in
  let outcome = ref [] in
  let note what n = outcome := (what, n) :: !outcome in
  let sockets = ref None in
  let tb =
    with_stream (fun tb sa sb ->
        sockets := Some (sa, sb);
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s" in
        let buf_a = Addr_space.alloc a_sp 256 in
        let buf_b = Addr_space.alloc b_sp 256 in
        (* Fresh region records and closures, probed and then dropped. *)
        let write () =
          let src = Region.sub buf_a ~off:0 ~len:64 in
          let k () = note "write" (Region.length src) in
          probe src;
          probe k;
          Socket.write sa src k
        in
        let read ~eof =
          let dst = Region.sub buf_b ~off:0 ~len:64 in
          let k n =
            note (if eof then "eof read" else "read") n;
            if not eof then Socket.close sa
          in
          probe dst;
          probe k;
          Socket.read_exact sb dst k
        in
        write ();
        read ~eof:false;
        ignore
          (Sim.after tb.Testbed.sim (Simtime.ms 50.) (fun () ->
               read ~eof:true)))
  in
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  Alcotest.(check (list (pair string int)))
    "calls completed"
    [ ("eof read", 0); ("read", 64); ("write", 64) ]
    (List.sort compare !outcome);
  check_bool "sockets still reachable" true (!sockets <> None);
  Gc.full_major ();
  Gc.full_major ();
  check_int "regions and continuations collected" !probed !collected;
  ignore (Sys.opaque_identity (tb, !sockets))

(* ---------- allocation budget ---------- *)

(* A 64-byte echo in the rpc benchmark's configuration (adaptive policy,
   descriptor coalescing, copy route both ways) allocates at most 1,250
   words per round trip, all layers included (about 1,190 with per-call
   state kept in the socket; rebuilding it per call took about 1,710). *)
let test_echo_alloc_budget () =
  let size = 64 and trips = 2_000 in
  let adaptive =
    { Socket.default_paths with Socket.force_uio = false; adaptive = true }
  in
  let run = ref (fun () -> ()) and completed = ref 0 in
  let tb =
    Testbed.create
      ~tcp_config:(fun c -> { c with Tcp.coalesce_descriptors = true })
      ()
  in
  Testbed.establish_stream tb ~port:5001 ~a_paths:adaptive ~b_paths:adaptive
    (fun sa sb ->
      let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"s" in
      let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"s" in
      let req = Addr_space.alloc a_sp size in
      let reply = Addr_space.alloc a_sp size in
      let srv = Addr_space.alloc b_sp size in
      let left = ref 0 in
      let rec serve () = Socket.read_exact sb srv served
      and served n = if n > 0 then Socket.write sb srv serve
      and ask () = Socket.write sa req await
      and await () = Socket.read_exact sa reply answered
      and answered n =
        if n = size then incr completed;
        decr left;
        if !left > 0 then ask ()
      in
      serve ();
      run :=
        fun () ->
          left := trips;
          ask ());
  Sim.run ~until:(Simtime.ms 100.) tb.Testbed.sim;
  let sim = tb.Testbed.sim in
  let { Alloc_budget.submit; drain } =
    Alloc_budget.measure 1
      ~submit:(fun _ -> !run ())
      ~drain:(fun () ->
        Sim.run ~until:(Simtime.add (Sim.now sim) (Simtime.s 60.)) sim)
  in
  check_int "every round trip echoed" (2 * trips) !completed;
  let words = (submit +. drain) /. float_of_int trips in
  check_bool
    (Printf.sprintf "%.1f words per 64-byte round trip" words)
    true (words <= 1250.)

let () =
  Alcotest.run "socket"
    [
      ( "blocking",
        [
          Alcotest.test_case "writer blocks on slow reader" `Quick
            test_write_blocks_counted;
          Alcotest.test_case "reader blocks on empty stream" `Quick
            test_read_blocks_counted;
          Alcotest.test_case "write after peer abort" `Quick
            test_write_after_peer_gone;
          Alcotest.test_case "second reader refused while one is parked"
            `Quick test_second_reader_blocked;
          Alcotest.test_case "second reader refused with data queued"
            `Quick test_second_reader_data_queued;
          Alcotest.test_case "finished calls retain nothing" `Quick
            test_no_retention;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "64-byte echo budget" `Quick
            test_echo_alloc_budget;
        ] );
      ( "paths",
        [
          Alcotest.test_case "align fixup stats" `Quick test_align_fixup_stats;
          Alcotest.test_case "two sockets, both directions" `Quick
            test_two_sockets_one_host;
          Alcotest.test_case "echo through one pin cache" `Quick
            test_pin_cache_shared_across_write_and_read;
          Alcotest.test_case "two sockets share their space's pins" `Quick
            test_sockets_share_space_pins;
          Alcotest.test_case "equal vaddrs of other spaces share no pins"
            `Quick test_equal_vaddrs_do_not_share_pins;
        ] );
      ( "path policy",
        [
          Alcotest.test_case "decide" `Quick test_path_policy_decide;
          Alcotest.test_case "online cutover refinement" `Quick
            test_path_policy_refines;
          Alcotest.test_case "exploration" `Quick test_path_policy_explore;
          Alcotest.test_case "adaptive routing end to end" `Quick
            test_adaptive_routing_end_to_end;
          Alcotest.test_case "descriptor coalescing" `Quick
            test_descriptor_coalescing;
        ] );
    ]
