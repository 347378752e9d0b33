(* End-to-end randomized tests: arbitrary write/read segmentations and
   random frame loss must never corrupt the byte stream, in either stack
   mode.  These drive the entire system — sockets, TCP, drivers, adaptor,
   link — through one property. *)

(* Two checksum sums are equal when their folded values are. *)
let csum_equal a b = Inet_csum.fold a = Inet_csum.fold b

(* One transfer with the given write sizes (sender) and read cap sizes
   (receiver), returning (completed, bytes, intact). *)
let run_transfer ~mode ~force_uio ~drop_a_frames ~writes ~read_caps () =
  let total = List.fold_left ( + ) 0 writes in
  if total = 0 then (true, 0, true)
  else begin
    let tb = Testbed.create ~mode ~drop_a_frames () in
    let finished = ref None in
    let paths = { Socket.default_paths with Socket.force_uio } in
    Testbed.establish_stream tb ~port:5001 ~a_paths:paths (fun sa sb ->
        let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"f" in
        let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"f" in
        (* One golden buffer; writes are random slices of it in order. *)
        let golden = Addr_space.alloc a_sp total in
        Region.fill_pattern golden ~seed:99;
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
            finished := Some (got, Region.equal_contents golden dst)
          else begin
            let cap = min (next_cap ()) (total - got) in
            Socket.read sb (Region.sub dst ~off:got ~len:cap) (fun n ->
                if n = 0 then
                  finished :=
                    Some (got, Region.equal_contents golden dst)
                else recv (got + n))
          end
        in
        send 0 writes;
        recv 0);
    Sim.run ~until:(Simtime.s 120.) tb.Testbed.sim;
    match !finished with
    | Some (got, intact) -> (got = total, got, intact)
    | None -> (false, -1, false)
  end

let gen_sizes =
  (* 1..20 writes of 1..70000 bytes, skewed small. *)
  QCheck.Gen.(
    list_size (1 -- 12)
      (oneof [ 1 -- 200; 1000 -- 9000; 20000 -- 70000 ]))

let arb_case =
  QCheck.make
    QCheck.Gen.(
      quad gen_sizes
        (list_size (1 -- 8) (1 -- 70000))
        (list_size (0 -- 3) (2 -- 40))
        bool)
    ~print:(fun (w, r, d, f) ->
      Printf.sprintf "writes=%s reads=%s drops=%s force=%b"
        (String.concat "," (List.map string_of_int w))
        (String.concat "," (List.map string_of_int r))
        (String.concat "," (List.map string_of_int d))
        f)

let prop_single_copy_stream =
  QCheck.Test.make ~name:"single-copy stream integrity (random sizes+loss)"
    ~count:80 arb_case
    (fun (writes, read_caps, drops, force_uio) ->
      try
        let ok, _, intact =
          run_transfer ~mode:Stack_mode.Single_copy ~force_uio
            ~drop_a_frames:drops ~writes ~read_caps ()
        in
        ok && intact
      with e ->
        Printf.eprintf "EXC %s\n%s\n" (Printexc.to_string e)
          (Printexc.get_backtrace ());
        false)

let prop_unmodified_stream =
  QCheck.Test.make ~name:"unmodified stream integrity (random sizes+loss)"
    ~count:50 arb_case
    (fun (writes, read_caps, drops, _force) ->
      let ok, _, intact =
        run_transfer ~mode:Stack_mode.Unmodified ~force_uio:false
          ~drop_a_frames:drops ~writes ~read_caps ()
      in
      ok && intact)

let prop_bidirectional_independence =
  QCheck.Test.make
    ~name:"both directions carry independent random streams" ~count:25
    QCheck.(pair (int_range 1000 200000) (int_range 1000 200000))
    (fun (na, nb) ->
      (* round up to words to permit UIO in both directions *)
      let na = (na + 3) / 4 * 4 and nb = (nb + 3) / 4 * 4 in
      let tb = Testbed.create () in
      let ok = ref (false, false) in
      let paths = { Socket.default_paths with Socket.force_uio = true } in
      Testbed.establish_stream tb ~port:5001 ~a_paths:paths ~b_paths:paths
        (fun sa sb ->
          let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"f" in
          let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"f" in
          let sa_src = Addr_space.alloc a_sp na in
          let sa_dst = Addr_space.alloc a_sp nb in
          let sb_src = Addr_space.alloc b_sp nb in
          let sb_dst = Addr_space.alloc b_sp na in
          Region.fill_pattern sa_src ~seed:na;
          Region.fill_pattern sb_src ~seed:nb;
          Socket.write sa sa_src (fun () -> ());
          Socket.write sb sb_src (fun () -> ());
          Socket.read_exact sb sb_dst (fun n ->
              ok := (n = na && Region.equal_contents sa_src sb_dst, snd !ok));
          Socket.read_exact sa sa_dst (fun n ->
              ok := (fst !ok, n = nb && Region.equal_contents sb_src sa_dst)));
      Sim.run ~until:(Simtime.s 60.) tb.Testbed.sim;
      fst !ok && snd !ok)

(* ---------- data-touching kernels over mbuf chains ----------

   Build chains mixing regular (internal/cluster) storage with M_UIO
   descriptor segments at random, odd-length boundaries, and hold
   [Mbuf.checksum] / [Mbuf.copy_into_csum] against the byte-at-a-time
   oracle over the flat golden buffer.  Odd segment lengths exercise the
   cross-segment [concat ~first_len] parity swap. *)

let profile = Host_profile.alpha400

(* A chain whose bytes are exactly [golden], cut into [cuts] segments;
   segment [i] is a UIO descriptor when [uio.(i)], else regular storage. *)
let build_mixed_chain ~golden ~cuts ~uio =
  let sp = Addr_space.create ~profile ~name:"fuzzk" () in
  let n = Bytes.length golden in
  let piece i lo hi =
    let len = hi - lo in
    if uio.(i) then begin
      let r = Addr_space.alloc sp len in
      Region.blit_from_bytes golden ~src_off:lo r ~dst_off:0 ~len;
      Mbuf.make_uio ~region:r
        ~notify:None
    end
    else Mbuf.of_bytes (Bytes.sub golden lo len)
  in
  let rec go i lo = function
    | [] ->
        if lo < n then [ piece i lo n ] else []
    | c :: rest ->
        if c <= lo || c >= n then go i lo rest
        else piece i lo c :: go (i + 1) c rest
  in
  match go 0 0 cuts with
  | [] -> Mbuf.of_bytes (Bytes.copy golden)
  | first :: rest ->
      List.iter (fun m -> Mbuf.append first m) rest;
      first

let arb_chain_case =
  QCheck.make
    QCheck.Gen.(
      let* s = string_size (1 -- 400) in
      let n = String.length s in
      let* cuts = list_size (0 -- 6) (1 -- max 1 (n - 1)) in
      let* uio = list_size (return 8) bool in
      let* off = 0 -- (n - 1) in
      let* len = 1 -- (n - off) in
      return (s, List.sort_uniq compare cuts, Array.of_list uio, off, len))
    ~print:(fun (s, cuts, _uio, off, len) ->
      Printf.sprintf "n=%d cuts=%s off=%d len=%d" (String.length s)
        (String.concat "," (List.map string_of_int cuts))
        off len)

let prop_chain_checksum_matches_oracle =
  QCheck.Test.make
    ~name:"chain checksum = flat oracle (mixed UIO, odd cuts)" ~count:500
    arb_chain_case
    (fun (s, cuts, uio, off, len) ->
      let golden = Bytes.of_string s in
      let chain = build_mixed_chain ~golden ~cuts ~uio in
      let got = Mbuf.checksum chain ~off ~len in
      let want = Inet_csum.reference_of_bytes ~off ~len golden in
      Mbuf.free chain;
      csum_equal got want)

let prop_chain_copy_csum_matches_oracle =
  QCheck.Test.make
    ~name:"fused chain copy+checksum = copy then oracle" ~count:500
    arb_chain_case
    (fun (s, cuts, uio, off, len) ->
      let golden = Bytes.of_string s in
      let chain = build_mixed_chain ~golden ~cuts ~uio in
      let dst_off = (off * 3) mod 5 in
      let dst = Bytes.make (dst_off + len + 2) '\xee' in
      let sum = Mbuf.copy_into_csum chain ~off ~len dst ~dst_off in
      Mbuf.free chain;
      Bytes.equal (Bytes.sub dst dst_off len) (Bytes.sub golden off len)
      && csum_equal sum (Inet_csum.reference_of_bytes ~off ~len golden)
      && Bytes.get dst (dst_off + len) = '\xee'
      && (dst_off = 0 || Bytes.get dst (dst_off - 1) = '\xee'))

let prop_chain_view_agrees =
  QCheck.Test.make
    ~name:"view windows read back the same bytes as copy_into" ~count:300
    arb_chain_case
    (fun (s, cuts, uio, off, len) ->
      let golden = Bytes.of_string s in
      let chain = build_mixed_chain ~golden ~cuts ~uio in
      let ok =
        match Mbuf.view chain ~off ~len with
        | None -> true (* spans a boundary: nothing to check *)
        | Some (b, pos) ->
            Bytes.equal (Bytes.sub b pos len) (Bytes.sub golden off len)
      in
      Mbuf.free chain;
      ok)

let () =
  Alcotest.run "fuzz"
    [
      ( "end-to-end",
        [
          QCheck_alcotest.to_alcotest prop_single_copy_stream;
          QCheck_alcotest.to_alcotest prop_unmodified_stream;
          QCheck_alcotest.to_alcotest prop_bidirectional_independence;
        ] );
      ( "kernels",
        [
          QCheck_alcotest.to_alcotest prop_chain_checksum_matches_oracle;
          QCheck_alcotest.to_alcotest prop_chain_copy_csum_matches_oracle;
          QCheck_alcotest.to_alcotest prop_chain_view_agrees;
        ] );
    ]
