(* Unit and property tests for the TCP building blocks: sequence
   arithmetic, the mixed-mbuf send queue, reassembly, and protocol
   behaviours observed through small testbed scenarios. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------- Tcp_seq ---------- *)

let test_seq_basics () =
  check_bool "lt" true (Tcp_seq.lt 5 10);
  check_bool "gt wrap" true (Tcp_seq.gt 5 0xfffffffb);
  check_int "diff wrap" 10 (Tcp_seq.diff 5 0xfffffffb);
  check_int "add wrap" 5 (Tcp_seq.add 0xfffffffb 10)

let prop_seq_antisymmetric =
  QCheck.Test.make ~name:"seq lt antisymmetric over half-range" ~count:500
    QCheck.(pair (int_bound 0xffffffff) (int_range 1 0x7ffffffe))
    (fun (a, d) ->
      let b = Tcp_seq.add a d in
      Tcp_seq.lt a b && Tcp_seq.gt b a && not (Tcp_seq.lt b a))

let prop_seq_diff_add =
  QCheck.Test.make ~name:"diff inverts add" ~count:500
    QCheck.(pair (int_bound 0xffffffff) (int_range 0 0x7fffffff))
    (fun (a, d) -> Tcp_seq.diff (Tcp_seq.add a d) a = d)

(* ---------- Tcp_sendq ---------- *)

let mk_sendq strings =
  let q = Tcp_sendq.create ~hiwat:(1 lsl 20) in
  List.iter (fun s -> Tcp_sendq.append q (Mbuf.of_string ~pkthdr:true s)) strings;
  q

let test_sendq_range_and_drop () =
  let q = mk_sendq [ "hello "; "cruel "; "world" ] in
  check_int "length" 17 (Tcp_sendq.length q);
  let r = Tcp_sendq.range q ~off:6 ~len:11 in
  check_str "cross-chain range" "cruel world" (Mbuf.to_string r);
  Mbuf.free r;
  Tcp_sendq.drop q 6;
  check_int "after drop" 11 (Tcp_sendq.length q);
  let r = Tcp_sendq.range q ~off:0 ~len:5 in
  check_str "offsets rebased" "cruel" (Mbuf.to_string r);
  Mbuf.free r;
  Alcotest.(check (result unit string)) "consistent" (Ok ()) (Tcp_sendq.check q);
  Tcp_sendq.clear q

let test_sendq_replace () =
  let q = mk_sendq [ "aaaa"; "bbbb"; "cccc" ] in
  Tcp_sendq.replace q ~off:2 ~len:8 (Mbuf.of_string "XXXXXXXX");
  let r = Tcp_sendq.range q ~off:0 ~len:12 in
  check_str "middle replaced" "aaXXXXXXXXcc" (Mbuf.to_string r);
  Mbuf.free r;
  Alcotest.(check (result unit string)) "consistent" (Ok ()) (Tcp_sendq.check q);
  Tcp_sendq.clear q

let test_sendq_replace_full_chain () =
  let q = mk_sendq [ "abcd" ] in
  Tcp_sendq.replace q ~off:0 ~len:4 (Mbuf.of_string "wxyz");
  let r = Tcp_sendq.range q ~off:0 ~len:4 in
  check_str "whole chain" "wxyz" (Mbuf.to_string r);
  Mbuf.free r;
  Tcp_sendq.clear q

let test_sendq_chain_extent () =
  let q = Tcp_sendq.create ~hiwat:(1 lsl 20) in
  Tcp_sendq.append q (Mbuf.of_string ~pkthdr:true "0123456789");
  let space = Addr_space.create ~profile:Host_profile.alpha400 ~name:"t" () in
  let region = Addr_space.alloc space 100 in
  Tcp_sendq.append q (Mbuf.make_uio ~region ~notify:None);
  let k, ext = Tcp_sendq.homogeneous_extent q ~off:0 in
  check_bool "regular chain" true (k = Mbuf.K_internal);
  check_int "extent to chain end" 10 ext;
  let k, ext = Tcp_sendq.homogeneous_extent q ~off:10 in
  check_bool "descriptor chain" true (k = Mbuf.K_uio);
  check_int "full uio extent" 100 ext;
  let k, ext = Tcp_sendq.homogeneous_extent q ~off:50 in
  check_bool "mid descriptor" true (k = Mbuf.K_uio);
  check_int "remaining extent" 60 ext;
  Tcp_sendq.clear q

let test_sendq_merge_descriptors () =
  let q = Tcp_sendq.create ~hiwat:(1 lsl 19) in
  let space = Addr_space.create ~profile:Host_profile.alpha400 ~name:"t" () in
  let r = Addr_space.alloc space 16384 in
  Region.fill_pattern r ~seed:11;
  let chunk i =
    Mbuf.make_uio
      ~region:(Region.sub r ~off:(i * 4096) ~len:4096)
      ~notify:None
  in
  Tcp_sendq.append q (chunk 0);
  check_bool "a second descriptor would merge" true
    (Tcp_sendq.append_merges_descriptor q (chunk 1));
  Tcp_sendq.append ~merge_descriptors:true q (chunk 1);
  Tcp_sendq.append ~merge_descriptors:true q (chunk 2);
  check_int "three writes queued" 12288 (Tcp_sendq.length q);
  (* The merged writes form one symbolic chain that packetization can
     cut full-MSS segments from. *)
  let k, ext = Tcp_sendq.homogeneous_extent q ~off:0 in
  check_bool "descriptor kind" true (k = Mbuf.K_uio);
  check_int "one chain spans the merged writes" 12288 ext;
  (* Without the flag, the next write starts its own chain. *)
  Tcp_sendq.append q (chunk 3);
  let _, ext = Tcp_sendq.homogeneous_extent q ~off:0 in
  check_int "unmerged write not linked on" 12288 ext;
  (* Merging must not disturb the bytes. *)
  let m = Tcp_sendq.range q ~off:0 ~len:16384 in
  let want = Bytes.create 16384 in
  Region.blit_to_bytes r ~src_off:0 want ~dst_off:0 ~len:16384;
  check_int "byte-identical through the merge"
    (Inet_csum.fold (Inet_csum.of_bytes want))
    (Inet_csum.fold (Mbuf.checksum m ~off:0 ~len:16384));
  Mbuf.free m;
  Alcotest.(check (result unit string)) "consistent" (Ok ()) (Tcp_sendq.check q);
  Tcp_sendq.clear q

let prop_sendq_like_string =
  (* Model-based: the queue must behave like a byte string under
     append/drop/range/replace. *)
  QCheck.Test.make ~name:"sendq behaves like a string buffer" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 5) (string_of_size Gen.(1 -- 50)))
        (list_of_size Gen.(0 -- 12) (pair (int_bound 3) (pair small_nat small_nat))))
    (fun (initial, ops) ->
      let q = mk_sendq initial in
      let model = ref (String.concat "" initial) in
      let ok = ref true in
      List.iter
        (fun (op, (a, b)) ->
          let n = String.length !model in
          match op with
          | 0 when n > 0 ->
              (* drop *)
              let k = a mod (n + 1) in
              Tcp_sendq.drop q k;
              model := String.sub !model k (n - k)
          | 1 ->
              (* append *)
              let s = String.make ((a mod 30) + 1) (Char.chr (65 + (b mod 26))) in
              Tcp_sendq.append q (Mbuf.of_string ~pkthdr:true s);
              model := !model ^ s
          | 2 when n > 0 ->
              (* range *)
              let off = a mod n in
              let len = 1 + (b mod (n - off)) in
              let r = Tcp_sendq.range q ~off ~len in
              if Mbuf.to_string r <> String.sub !model off len then ok := false;
              Mbuf.free r
          | 3 when n > 0 ->
              (* replace *)
              let off = a mod n in
              let len = 1 + (b mod (n - off)) in
              let s = String.make len 'r' in
              Tcp_sendq.replace q ~off ~len (Mbuf.of_string s);
              model :=
                String.sub !model 0 off ^ s
                ^ String.sub !model (off + len) (n - off - len)
          | _ -> ())
        ops;
      if Tcp_sendq.length q <> String.length !model then ok := false;
      if Tcp_sendq.check q <> Ok () then ok := false;
      if String.length !model > 0 then begin
        let r = Tcp_sendq.range q ~off:0 ~len:(String.length !model) in
        if Mbuf.to_string r <> !model then ok := false;
        Mbuf.free r
      end;
      Tcp_sendq.clear q;
      !ok)

(* Model-based, with every storage kind: regular chains, M_UIO
   descriptors appended with and without merging, and M_WCAB or regular
   replacements.  The model is one cell per queued byte: its value, its
   mbuf kind and the chain holding it, so it predicts bytes, kinds,
   homogeneous extents and chain boundaries.  [check] (cached lengths
   against the chains) runs after every operation, and every WCAB
   descriptor is released exactly once by the end. *)
type cell = { byte : char; kind : Mbuf.kind; chain : int }

let descriptor_kind = function
  | Mbuf.K_uio | Mbuf.K_wcab -> true
  | Mbuf.K_internal | Mbuf.K_cluster -> false

let prop_sendq_cached_lengths =
  let space = Addr_space.create ~profile:Host_profile.alpha400 ~name:"m" () in
  let user = Addr_space.alloc space 8192 in
  Region.fill_pattern user ~seed:5;
  let user_bytes = Bytes.create 8192 in
  Region.blit_to_bytes user ~src_off:0 user_bytes ~dst_off:0 ~len:8192;
  let gen =
    QCheck.Gen.(
      list_size (1 -- 40)
        (quad (int_bound 6) (int_bound 4095) (int_bound 4095) bool))
  in
  QCheck.Test.make ~name:"sendq cached lengths against a byte/kind model"
    ~count:300 (QCheck.make gen) (fun ops ->
      let q = Tcp_sendq.create ~hiwat:(1 lsl 20) in
      let model = ref [||] in
      let next_chain = ref 0 in
      let fresh () =
        incr next_chain;
        !next_chain
      in
      let descs = ref 0 and released = ref 0 in
      let ok = ref true in
      let expect what b = if not b then (ok := false; prerr_endline what) in
      (* Cells of a chain about to be queued, as chain [id]. *)
      let cells_of m id =
        let acc = ref [] in
        Mbuf.iter
          (fun mb ->
            for _ = 1 to mb.Mbuf.len do
              acc := Mbuf.kind mb :: !acc
            done)
          m;
        let buf = Bytes.create (Mbuf.chain_len m) in
        Mbuf.copy_into_raw m ~off:0 ~len:(Bytes.length buf) buf ~dst_off:0;
        Array.of_list
          (List.mapi
             (fun i kind -> { byte = Bytes.get buf i; kind; chain = id })
             (List.rev !acc))
      in
      let wcab s =
        incr descs;
        let desc =
          { Mbuf.wcab_id = !descs; wcab_bytes = Bytes.of_string s;
            wcab_base = 0; wcab_valid = String.length s;
            wcab_free = (fun () -> incr released); wcab_refs = ref 1 }
        in
        Mbuf.make_wcab ~desc ~len:(String.length s)
      in
      List.iter
        (fun (op, a, b, flag) ->
          let n = Array.length !model in
          (match op with
          | 0 ->
              let s =
                String.init (1 + (a mod 600)) (fun i ->
                    Char.chr (97 + ((i + b) mod 26)))
              in
              let m = Mbuf.of_string ~pkthdr:true s in
              model := Array.append !model (cells_of m (fresh ()));
              Tcp_sendq.append ~merge_descriptors:flag q m
          | 1 ->
              let off = a mod 4096 and len = 1 + (b mod 2048) in
              let m =
                Mbuf.make_uio ~region:(Region.sub user ~off ~len) ~notify:None
              in
              let after_uio = n > 0 && !model.(n - 1).kind = Mbuf.K_uio in
              expect "merge predicted"
                (Tcp_sendq.append_merges_descriptor q m = after_uio);
              let id =
                if flag && after_uio then !model.(n - 1).chain else fresh ()
              in
              model := Array.append !model (cells_of m id);
              Tcp_sendq.append ~merge_descriptors:flag q m
          | 2 when n > 0 ->
              let off = a mod n in
              let len = 1 + (b mod (n - off)) in
              let r = Tcp_sendq.range q ~off ~len in
              let buf = Bytes.create len in
              Mbuf.copy_into_raw r ~off:0 ~len buf ~dst_off:0;
              expect "range bytes"
                (Bytes.to_string buf
                = String.init len (fun i -> !model.(off + i).byte));
              expect "range kinds"
                (cells_of r 0 |> Array.map (fun c -> c.kind)
                = Array.init len (fun i -> !model.(off + i).kind));
              expect "range header" (Mbuf.check_invariants r = Ok ());
              Mbuf.free r
          | 3 when n > 0 ->
              let off = a mod n in
              let c = !model.(off) in
              let extent = ref 1 in
              while
                off + !extent < n
                &&
                let d = !model.(off + !extent) in
                d.chain = c.chain
                || not (descriptor_kind c.kind || descriptor_kind d.kind)
              do
                incr extent
              done;
              expect "homogeneous extent"
                (Tcp_sendq.homogeneous_extent q ~off = (c.kind, !extent))
          | 4 when n > 0 ->
              let off = a mod n in
              let len = 1 + (b mod (n - off)) in
              let s =
                String.init len (fun i -> Char.chr (65 + ((i + a) mod 26)))
              in
              let repl = if flag then wcab s else Mbuf.of_string s in
              let fresh_cells = cells_of repl (fresh ()) in
              let last = !model.(off + len - 1).chain and back = fresh () in
              model :=
                Array.init n (fun i ->
                    if i < off then !model.(i)
                    else if i < off + len then fresh_cells.(i - off)
                    else if !model.(i).chain = last then
                      { (!model.(i)) with chain = back }
                    else !model.(i));
              Tcp_sendq.replace q ~off ~len repl
          | 5 when n > 0 ->
              let k = a mod (n + 1) in
              Tcp_sendq.drop q k;
              model := Array.sub !model k (n - k)
          | 6 when n > 0 ->
              let off = a mod n in
              let len = 1 + (b mod (n - off)) in
              let all = ref true in
              for i = off to off + len - 1 do
                if !model.(i).kind <> Mbuf.K_wcab then all := false
              done;
              expect "all_wcab" (Tcp_sendq.all_wcab q ~off ~len = !all)
          | _ -> ());
          expect "length" (Tcp_sendq.length q = Array.length !model);
          match Tcp_sendq.check q with
          | Ok () -> ()
          | Error e -> expect e false)
        ops;
      Tcp_sendq.clear q;
      expect "cleared" (Tcp_sendq.length q = 0 && Tcp_sendq.check q = Ok ());
      expect "every descriptor released once" (!released = !descs);
      !ok)

(* ---------- Tcp_reasm ---------- *)

let seg s = Mbuf.of_string ~pkthdr:true s

let take_all reasm ~rcv_nxt =
  List.map
    (fun (c, l) ->
      let s = Mbuf.to_string c in
      Mbuf.free c;
      assert (String.length s = l);
      s)
    (Tcp_reasm.take reasm ~rcv_nxt)

let test_reasm_gap_fill () =
  let r = Tcp_reasm.create () in
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:10 (seg "KLMNO");
  check_int "held" 5 (Tcp_reasm.bytes_held r);
  Alcotest.(check (list string)) "nothing contiguous" []
    (take_all r ~rcv_nxt:0);
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:5 (seg "FGHIJ");
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:0 (seg "ABCDE");
  Alcotest.(check (list string)) "all contiguous"
    [ "ABCDE"; "FGHIJ"; "KLMNO" ]
    (take_all r ~rcv_nxt:0)

let test_reasm_duplicate_trim () =
  let r = Tcp_reasm.create () in
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:0 (seg "ABCDE");
  (* duplicate covering [3,8): prefix trimmed *)
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:3 (seg "DEFGH");
  Alcotest.(check (list string)) "overlap trimmed" [ "ABCDE"; "FGH" ]
    (take_all r ~rcv_nxt:0)

let test_reasm_old_data_dropped () =
  let r = Tcp_reasm.create () in
  Tcp_reasm.insert r ~rcv_nxt:100 ~seq:90 (seg "0123456789");
  check_int "fully old segment freed" 0 (Tcp_reasm.bytes_held r);
  Tcp_reasm.insert r ~rcv_nxt:100 ~seq:95 (seg "0123456789");
  check_int "partial trim keeps tail" 5 (Tcp_reasm.bytes_held r);
  Alcotest.(check (list string)) "tail delivered" [ "56789" ]
    (take_all r ~rcv_nxt:100)

let test_reasm_overlap_spans_queued () =
  (* A retransmission can bridge a gap while overlapping the queued
     segment on BOTH sides; the overlap is trimmed and the stream stays
     byte-identical. *)
  let data = "ABCDEFGHIJKLMNO" in
  let sub pos len = seg (String.sub data pos len) in
  let r = Tcp_reasm.create () in
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:0 (sub 0 5);
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:10 (sub 10 5);
  (* [3,12): overlaps [0,5) by two bytes and [10,15) by two bytes *)
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:3 (sub 3 9);
  Alcotest.(check string) "stream byte-identical" data
    (String.concat "" (take_all r ~rcv_nxt:0));
  check_bool "nothing left queued" true (Tcp_reasm.bytes_held r = 0)

let test_reasm_out_of_order_with_duplicates () =
  let data = "0123456789abcdefghij" in
  let sub pos len = seg (String.sub data pos len) in
  let r = Tcp_reasm.create () in
  (* arrival order: tail, dup tail, middle, head, dup middle *)
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:14 (sub 14 6);
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:14 (sub 14 6);
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:6 (sub 6 8);
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:0 (sub 0 6);
  Tcp_reasm.insert r ~rcv_nxt:0 ~seq:6 (sub 6 8);
  Alcotest.(check string) "stream byte-identical" data
    (String.concat "" (take_all r ~rcv_nxt:0));
  check_bool "duplicates freed, nothing queued" true (Tcp_reasm.bytes_held r = 0)

let prop_reasm_overlapping_oracle =
  (* Beyond [prop_reasm_reconstructs]' exact duplicates: inject random
     OVERLAPPING spans of the stream (as overlapping retransmissions do)
     on top of a covering segmentation, in random order.  The drained
     stream must still be byte-identical to the original. *)
  QCheck.Test.make ~name:"overlapping retransmissions never corrupt the stream"
    ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 120)) small_nat)
    (fun (data, seed) ->
      let n = String.length data in
      let rng = Rng.create ~seed in
      let rec cuts acc pos =
        if pos >= n then List.rev acc
        else
          let len = min (1 + Rng.int rng 20) (n - pos) in
          cuts ((pos, len) :: acc) (pos + len)
      in
      let extras =
        List.init
          (1 + Rng.int rng 10)
          (fun _ ->
            let pos = Rng.int rng n in
            (pos, 1 + Rng.int rng (n - pos)))
      in
      let arr = Array.of_list (cuts [] 0 @ extras) in
      for i = Array.length arr - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let r = Tcp_reasm.create () in
      let rcv_nxt = ref 0 in
      let out = Buffer.create n in
      Array.iter
        (fun (pos, len) ->
          Tcp_reasm.insert r ~rcv_nxt:!rcv_nxt ~seq:pos
            (seg (String.sub data pos len));
          List.iter
            (fun (c, l) ->
              Buffer.add_string out (Mbuf.to_string c);
              Mbuf.free c;
              rcv_nxt := !rcv_nxt + l)
            (Tcp_reasm.take r ~rcv_nxt:!rcv_nxt))
        arr;
      Buffer.contents out = data && Tcp_reasm.bytes_held r = 0)

let prop_reasm_reconstructs =
  (* Insert random segmentations of a string in random order (with
     duplicates); the contiguous take must reproduce the string. *)
  QCheck.Test.make ~name:"reassembly reconstructs any arrival order"
    ~count:300
    QCheck.(
      pair (string_of_size Gen.(1 -- 120)) (pair small_nat (list small_nat)))
    (fun (data, (seed, _)) ->
      let n = String.length data in
      let rng = Rng.create ~seed in
      (* random segmentation *)
      let rec cuts acc pos =
        if pos >= n then List.rev acc
        else
          let len = 1 + Rng.int rng 20 in
          let len = min len (n - pos) in
          cuts ((pos, len) :: acc) (pos + len)
      in
      let segments = cuts [] 0 in
      (* shuffle + duplicate some *)
      let arr = Array.of_list (segments @ segments) in
      for i = Array.length arr - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let r = Tcp_reasm.create () in
      let rcv_nxt = ref 0 in
      let out = Buffer.create n in
      Array.iter
        (fun (pos, len) ->
          Tcp_reasm.insert r ~rcv_nxt:!rcv_nxt ~seq:pos
            (seg (String.sub data pos len));
          List.iter
            (fun (c, l) ->
              Buffer.add_string out (Mbuf.to_string c);
              Mbuf.free c;
              rcv_nxt := !rcv_nxt + l)
            (Tcp_reasm.take r ~rcv_nxt:!rcv_nxt))
        arr;
      Buffer.contents out = data && Tcp_reasm.bytes_held r = 0)

(* ---------- protocol scenarios ---------- *)

let test_handshake_states () =
  let tb = Testbed.create () in
  let states = ref [] in
  Tcp.listen tb.Testbed.b.Testbed.stack.Netstack.tcp ~port:99
    ~on_accept:(fun pcb -> states := ("accept", Tcp.state pcb) :: !states);
  let pcb =
    Tcp.connect tb.Testbed.a.Testbed.stack.Netstack.tcp ~dst:Testbed.addr_b
      ~dst_port:99 ()
  in
  check_bool "SYN_SENT after connect" true (Tcp.state pcb = Tcp.Syn_sent);
  Sim.run ~until:(Simtime.ms 100.) tb.Testbed.sim;
  check_bool "ESTABLISHED" true (Tcp.state pcb = Tcp.Established);
  check_bool "acceptor established" true
    (match !states with
    | [ ("accept", Tcp.Established) ] -> true
    | _ -> false)

let test_full_teardown_states () =
  let tb = Testbed.create () in
  let b_pcb = ref None in
  Tcp.listen tb.Testbed.b.Testbed.stack.Netstack.tcp ~port:99
    ~on_accept:(fun pcb -> b_pcb := Some pcb);
  let a_pcb =
    Tcp.connect tb.Testbed.a.Testbed.stack.Netstack.tcp ~dst:Testbed.addr_b
      ~dst_port:99 ()
  in
  Sim.run ~until:(Simtime.ms 50.) tb.Testbed.sim;
  (* A closes; B should reach CLOSE_WAIT; then B closes too. *)
  Tcp.close a_pcb;
  Sim.run ~until:(Simtime.ms 100.) tb.Testbed.sim;
  check_bool "A in FIN_WAIT_2" true (Tcp.state a_pcb = Tcp.Fin_wait_2);
  check_bool "B in CLOSE_WAIT" true
    (Tcp.state (Option.get !b_pcb) = Tcp.Close_wait);
  Tcp.close (Option.get !b_pcb);
  Sim.run ~until:(Simtime.ms 200.) tb.Testbed.sim;
  check_bool "B closed after LAST_ACK" true
    (Tcp.state (Option.get !b_pcb) = Tcp.Closed);
  (* A passes through TIME_WAIT (2*MSL = 40ms) to CLOSED. *)
  Sim.run ~until:(Simtime.ms 400.) tb.Testbed.sim;
  check_bool "A closed after TIME_WAIT" true (Tcp.state a_pcb = Tcp.Closed)

(* B's FIN is lost while B sits in LAST_ACK.  The retransmit timer
   rewinds [snd_nxt] over the FIN, so the FIN must count as sendable in
   LAST_ACK or nothing ever resends it: B would keep its pcb forever and
   A would wait in FIN_WAIT_2. *)
let test_last_ack_fin_retransmitted () =
  (* B's frames: 0 SYN-ACK, 1 the ACK of A's FIN, 2 B's own FIN. *)
  let tb = Testbed.create ~drop_b_frames:[ 2 ] () in
  let tcp_a = tb.Testbed.a.Testbed.stack.Netstack.tcp in
  let tcp_b = tb.Testbed.b.Testbed.stack.Netstack.tcp in
  let b_pcb = ref None in
  Tcp.listen tcp_b ~port:99 ~on_accept:(fun pcb -> b_pcb := Some pcb);
  let a_pcb = Tcp.connect tcp_a ~dst:Testbed.addr_b ~dst_port:99 () in
  Sim.run ~until:(Simtime.ms 50.) tb.Testbed.sim;
  Tcp.close a_pcb;
  Sim.run ~until:(Simtime.ms 100.) tb.Testbed.sim;
  let b_pcb = Option.get !b_pcb in
  check_bool "B in CLOSE_WAIT" true (Tcp.state b_pcb = Tcp.Close_wait);
  Tcp.close b_pcb;
  Sim.run ~until:(Simtime.ms 110.) tb.Testbed.sim;
  check_bool "B in LAST_ACK, FIN lost" true (Tcp.state b_pcb = Tcp.Last_ack);
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  check_bool "B closed" true (Tcp.state b_pcb = Tcp.Closed);
  check_bool "A closed" true (Tcp.state a_pcb = Tcp.Closed);
  check_int "A flow table drained" 0 (Tcp.active_flows tcp_a);
  check_int "B flow table drained" 0 (Tcp.active_flows tcp_b)

let test_listener_port_conflict () =
  let tb = Testbed.create () in
  Tcp.listen tb.Testbed.b.Testbed.stack.Netstack.tcp ~port:7 ~on_accept:ignore;
  check_bool "double listen rejected" true
    (try
       Tcp.listen tb.Testbed.b.Testbed.stack.Netstack.tcp ~port:7
         ~on_accept:ignore;
       false
     with Invalid_argument _ -> true)

let test_rtt_estimation () =
  let tb = Testbed.create () in
  let done_ = ref false in
  Testbed.establish_stream tb ~port:5001 (fun sa sb ->
      let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"x" in
      let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"x" in
      let src = Addr_space.alloc a_sp 262144 in
      let dst = Addr_space.alloc b_sp 262144 in
      Socket.write sa src (fun () -> ());
      Socket.read_exact sb dst (fun _ -> done_ := true));
  Sim.run ~until:(Simtime.s 10.) tb.Testbed.sim;
  check_bool "transfer done" true !done_

let test_zero_window_persist () =
  (* Tiny receive buffer and a reader that never reads: the sender must
     not deadlock, and must finish once the reader starts. *)
  let tb =
    Testbed.create
      ~tcp_config:(fun c -> { c with Tcp.rcv_buf = 65536 })
      ()
  in
  let finished = ref false in
  Testbed.establish_stream tb ~port:5001
    ~a_paths:{ Socket.default_paths with Socket.force_uio = true }
    (fun sa sb ->
      let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"x" in
      let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"x" in
      let src = Addr_space.alloc a_sp 262144 in
      Region.fill_pattern src ~seed:2;
      let dst = Addr_space.alloc b_sp 262144 in
      Socket.write sa src (fun () -> ());
      (* Reader only wakes up after 100 ms of window-closed stall. *)
      ignore
        (Sim.after tb.Testbed.sim (Simtime.ms 100.) (fun () ->
             Socket.read_exact sb dst (fun n ->
                 finished := n = 262144 && Region.equal_contents src dst))));
  Sim.run ~until:(Simtime.s 30.) tb.Testbed.sim;
  check_bool "completed after zero-window stall" true !finished

let test_gives_up_after_max_rexmt () =
  (* Kill the link after the handshake: the sender must not retry
     forever. *)
  let drop_everything_after = List.init 500 (fun i -> i + 2) in
  let tb = Testbed.create ~drop_a_frames:drop_everything_after () in
  let closed = ref false in
  let sent_pcb = ref None in
  Testbed.establish_stream tb ~port:5001 (fun sa _sb ->
      sent_pcb := Some (Socket.pcb sa);
      Tcp.set_callbacks (Socket.pcb sa) ~on_closed:(fun () -> closed := true) ();
      let sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"x" in
      let src = Addr_space.alloc sp 65536 in
      Socket.write sa src (fun () -> ()));
  Sim.run ~until:(Simtime.s 60.) tb.Testbed.sim;
  check_bool "connection gave up" true !closed;
  check_bool "state is CLOSED" true
    (Tcp.state (Option.get !sent_pcb) = Tcp.Closed);
  check_int "no events left ticking" 0
    (let sim = tb.Testbed.sim in
     Sim.run sim;
     0)

let test_persist_recovers_lost_window_update () =
  (* Tiny receive buffer; the reader sleeps until the window closes, then
     drains — but B's frames (including the window update) are dropped
     for a while.  Only the sender's persist probe can reopen the flow. *)
  let tb =
    Testbed.create
      ~tcp_config:(fun c -> { c with Tcp.rcv_buf = 65536 })
      (* Drop a swath of B's frames around the drain. *)
      ~drop_b_frames:(List.init 6 (fun i -> i + 4))
      ()
  in
  let finished = ref false in
  Testbed.establish_stream tb ~port:5001
    ~a_paths:{ Socket.default_paths with Socket.force_uio = true }
    (fun sa sb ->
      let a_sp = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"x" in
      let b_sp = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"x" in
      let src = Addr_space.alloc a_sp 262144 in
      Region.fill_pattern src ~seed:4;
      let dst = Addr_space.alloc b_sp 262144 in
      Socket.write sa src (fun () -> ());
      ignore
        (Sim.after tb.Testbed.sim (Simtime.ms 80.) (fun () ->
             Socket.read_exact sb dst (fun n ->
                 finished := n = 262144 && Region.equal_contents src dst))));
  Sim.run ~until:(Simtime.s 60.) tb.Testbed.sim;
  check_bool "recovered via persist probing" true !finished

let test_simultaneous_close () =
  let tb = Testbed.create () in
  let b_pcb = ref None in
  Tcp.listen tb.Testbed.b.Testbed.stack.Netstack.tcp ~port:99
    ~on_accept:(fun pcb -> b_pcb := Some pcb);
  let a_pcb =
    Tcp.connect tb.Testbed.a.Testbed.stack.Netstack.tcp ~dst:Testbed.addr_b
      ~dst_port:99 ()
  in
  Sim.run ~until:(Simtime.ms 50.) tb.Testbed.sim;
  (* Close both ends in the same instant: FINs cross. *)
  Tcp.close a_pcb;
  Tcp.close (Option.get !b_pcb);
  Sim.run ~until:(Simtime.s 2.) tb.Testbed.sim;
  check_bool "A closed" true (Tcp.state a_pcb = Tcp.Closed);
  check_bool "B closed" true (Tcp.state (Option.get !b_pcb) = Tcp.Closed)

let test_delack_coalesces_acks () =
  (* With delayed ACKs on, bulk transfer generates roughly one ACK per two
     segments, not one per segment. *)
  let tb = Testbed.create () in
  let r =
    Ttcp.run ~tb ~wsize:65536 ~total:(2 * 1024 * 1024) ~verify:false ()
  in
  let st = r.Ttcp.sender_tcp in
  check_bool
    (Printf.sprintf "acks (%d) ~ half of segments (%d)" st.Tcp.acks_rcvd
       st.Tcp.segs_sent)
    true
    (st.Tcp.acks_rcvd * 3 / 2 <= st.Tcp.segs_sent)

(* Adaptive routing with descriptor coalescing lets a segment carry inline
   bytes ahead of its descriptors, so the driver's outboard descriptor
   covers less than the segment.  Long streams used to map the whole
   segment onto it and crash (or, when the range fit, convert the send
   queue onto the wrong bytes); only exact covers may convert. *)
let test_adaptive_coalesce_long_streams () =
  List.iter
    (fun total ->
      let tb =
        Testbed.create
          ~tcp_config:(fun c -> { c with Tcp.coalesce_descriptors = true })
          ()
      in
      let r =
        Ttcp.run ~tb ~wsize:65536 ~total ~force_uio:false ~adaptive:true ()
      in
      let mb = total lsr 20 in
      check_bool (Printf.sprintf "%d MB verified" mb) true r.Ttcp.verified;
      check_bool
        (Printf.sprintf "%d MB still converts exact covers" mb)
        true
        (r.Ttcp.sender_tcp.Tcp.wcab_converted > 0))
    [ 4 lsl 20; 16 lsl 20 ]

let () =
  Alcotest.run "tcp"
    [
      ( "seq",
        [
          Alcotest.test_case "basics" `Quick test_seq_basics;
          QCheck_alcotest.to_alcotest prop_seq_antisymmetric;
          QCheck_alcotest.to_alcotest prop_seq_diff_add;
        ] );
      ( "sendq",
        [
          Alcotest.test_case "range/drop" `Quick test_sendq_range_and_drop;
          Alcotest.test_case "replace" `Quick test_sendq_replace;
          Alcotest.test_case "replace full chain" `Quick
            test_sendq_replace_full_chain;
          Alcotest.test_case "chain extent" `Quick test_sendq_chain_extent;
          Alcotest.test_case "descriptor merge" `Quick
            test_sendq_merge_descriptors;
          QCheck_alcotest.to_alcotest prop_sendq_like_string;
          QCheck_alcotest.to_alcotest prop_sendq_cached_lengths;
        ] );
      ( "reasm",
        [
          Alcotest.test_case "gap fill" `Quick test_reasm_gap_fill;
          Alcotest.test_case "duplicate trim" `Quick test_reasm_duplicate_trim;
          Alcotest.test_case "old data" `Quick test_reasm_old_data_dropped;
          Alcotest.test_case "overlap spans queued segments" `Quick
            test_reasm_overlap_spans_queued;
          Alcotest.test_case "out-of-order with duplicates" `Quick
            test_reasm_out_of_order_with_duplicates;
          QCheck_alcotest.to_alcotest prop_reasm_reconstructs;
          QCheck_alcotest.to_alcotest prop_reasm_overlapping_oracle;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "handshake" `Quick test_handshake_states;
          Alcotest.test_case "teardown states" `Quick test_full_teardown_states;
          Alcotest.test_case "FIN lost in LAST_ACK is retransmitted" `Quick
            test_last_ack_fin_retransmitted;
          Alcotest.test_case "port conflict" `Quick test_listener_port_conflict;
          Alcotest.test_case "bulk with RTT estimation" `Quick
            test_rtt_estimation;
          Alcotest.test_case "zero-window persist" `Quick
            test_zero_window_persist;
          Alcotest.test_case "delayed acks" `Quick test_delack_coalesces_acks;
          Alcotest.test_case "adaptive + coalesce long streams" `Quick
            test_adaptive_coalesce_long_streams;
          Alcotest.test_case "gives up after max rexmt" `Quick
            test_gives_up_after_max_rexmt;
          Alcotest.test_case "simultaneous close" `Quick
            test_simultaneous_close;
          Alcotest.test_case "persist vs lost window update" `Quick
            test_persist_recovers_lost_window_update;
        ] );
    ]
