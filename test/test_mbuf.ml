(* Tests for the mbuf subsystem, including the descriptor types. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Two checksum sums are equal when their folded values are. *)
let csum_equal a b = Inet_csum.fold a = Inet_csum.fold b
let csum_of_string s = Inet_csum.of_bytes (Bytes.of_string s)

let profile = Host_profile.alpha400
let space () = Addr_space.create ~profile ~name:"app" ()

(* A gauge of the [mbuf_pool] registry section. *)
let pool name = int_of_float (Obs.value ~section:"mbuf_pool" ~name)

let assert_ok m =
  match Mbuf.check_invariants m with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariant: " ^ e)

let mk_wcab_desc ?(len = 256) ?(freed = ref false) () =
  let bytes = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set_uint8 bytes i (i land 0xff)
  done;
  {
    Mbuf.wcab_id = 1;
    wcab_bytes = bytes;
    wcab_base = 0;
    wcab_valid = len;
    wcab_free = (fun () -> freed := true);
    wcab_refs = ref 1;
  }

(* ---------- construction ---------- *)

let test_of_string_chains () =
  let small = Mbuf.of_string ~pkthdr:true "hello" in
  assert_ok small;
  check_int "small fits internal" 1 (List.length (Mbuf.chain_kinds small));
  Alcotest.(check (list bool)) "internal kind" [ true ]
    (List.map (fun k -> k = Mbuf.K_internal) (Mbuf.chain_kinds small));
  check_str "contents" "hello" (Mbuf.to_string small);
  let big = Mbuf.of_string ~pkthdr:true (String.make 5000 'x') in
  assert_ok big;
  check_int "5000B spans clusters" 3 (List.length (Mbuf.chain_kinds big));
  check_int "pkt_len" 5000 (Mbuf.pkt_len big);
  Mbuf.free small;
  Mbuf.free big

let test_pool_accounting () =
  Mbuf.Pool.reset ();
  let m = Mbuf.of_string (String.make 3000 'y') in
  check_bool "live > 0" true (pool "live" > 0);
  check_bool "clusters counted" true (pool "live_clusters" >= 1);
  Mbuf.free m;
  check_int "all freed" 0 (pool "live");
  check_int "no clusters" 0 (pool "live_clusters")

(* ---------- storage pooling ---------- *)

let test_pool_recycle_clean () =
  Mbuf.Pool.reset ();
  (* Populate both free lists with used storage. *)
  let s = Mbuf.of_string ~pkthdr:true "stale small payload" in
  let m = Mbuf.of_string ~pkthdr:true (String.make 3000 'z') in
  Mbuf.free s;
  Mbuf.free m;
  check_bool "cells cached after free" true
    (pool "free_small" + pool "free_clusters" > 0);
  let before_hits = Mbuf.Pool.hit_count () in
  let m2 = Mbuf.of_string ~pkthdr:true "" in
  check_bool "reuse came from the pool" true
    (Mbuf.Pool.hit_count () > before_hits);
  (* Recycled storage must come back logically empty — no stale length
     or contents from its previous life. *)
  assert_ok m2;
  check_int "recycled mbuf is zero-length" 0 (Mbuf.chain_len m2);
  check_int "recycled pkt_len is zero" 0 (Mbuf.pkt_len m2);
  check_str "no stale payload" "" (Mbuf.to_string m2);
  let hits = Mbuf.Pool.hit_count () in
  let c2 = Mbuf.alloc 2048 in
  check_bool "cluster came from the pool" true
    (Mbuf.Pool.hit_count () > hits);
  assert_ok c2;
  check_str "recycled cluster holds no stale bytes" (String.make 2048 '\000')
    (Mbuf.to_string c2);
  Mbuf.free m2;
  Mbuf.free c2;
  (* Ownership is clean: each free accounts exactly once. *)
  check_int "nothing live" 0 (pool "live")

(* One warm-up round, then 50 more; round [i] runs as [run i round]. *)
let steady_state_allocs run =
  Mbuf.Pool.reset ();
  let rounds = ref 0 in
  let round () =
    let m = Mbuf.of_string ~pkthdr:true (String.make 6000 'a') in
    Mbuf.free m;
    incr rounds
  in
  (* One warm-up round primes the free lists... *)
  run 0 round;
  let warm = pool "allocs" in
  (* ...after which a steady-state workload allocates nothing fresh. *)
  for i = 1 to 50 do
    run i round
  done;
  check_int "every round ran" 51 !rounds;
  check_int "total_allocs flat once warm" warm (pool "allocs");
  check_bool "steady state hit rate > 0.9" true (Mbuf.Pool.hit_rate () > 0.9);
  check_int "nothing live at the end" 0 (pool "live")

let test_pool_steady_state_allocs () =
  steady_state_allocs (fun _ round -> round ());
  (* The free lists are process-wide: a buffer freed on one shard of a
     multi-shard host is a hit for the next shard. *)
  let tb = Testbed.create ~shards:4 () in
  let host = tb.Testbed.b.Testbed.stack.Netstack.host in
  steady_state_allocs (fun i round ->
      Host.in_proc_on host ~shard:(i mod 4) ~proc:"app" 0 round;
      Sim.run ~until:(Sim.now tb.Testbed.sim + Simtime.ms 1.) tb.Testbed.sim)

let test_uio_mbuf () =
  let sp = space () in
  let r = Addr_space.alloc sp 10000 in
  Region.fill_pattern r ~seed:3;
  let m = Mbuf.make_uio ~region:r ~notify:(Some (Mbuf.make_notify ())) in
  assert_ok m;
  check_int "pkt_len = region len" 10000 (Mbuf.pkt_len m);
  check_bool "is descriptor" true (Mbuf.is_descriptor m);
  Alcotest.(check bool) "kind uio" true (Mbuf.kind m = Mbuf.K_uio);
  (* Host can read through to user memory. *)
  let buf = Bytes.create 16 in
  Mbuf.copy_into m ~off:100 ~len:16 buf ~dst_off:0;
  let expect = Bytes.create 16 in
  Region.blit_to_bytes r ~src_off:100 expect ~dst_off:0 ~len:16;
  check_str "reads user data" (Bytes.to_string expect) (Bytes.to_string buf);
  Mbuf.free m

let test_wcab_outboard_protection () =
  let desc = mk_wcab_desc () in
  let m = Mbuf.make_wcab ~desc ~len:200 in
  assert_ok m;
  let buf = Bytes.create 10 in
  check_bool "read raises Outboard_data" true
    (try
       Mbuf.copy_into m ~off:0 ~len:10 buf ~dst_off:0;
       false
     with Mbuf.Outboard_data -> true);
  check_bool "checksum raises too" true
    (try
       ignore (Mbuf.checksum m ~off:0 ~len:10);
       false
     with Mbuf.Outboard_data -> true);
  Mbuf.free m

let test_wcab_free_hook () =
  let freed = ref false in
  let desc = mk_wcab_desc ~freed () in
  let m = Mbuf.make_wcab ~desc ~len:100 in
  Mbuf.free m;
  check_bool "release hook ran" true !freed

let test_wcab_shared_free_once () =
  let freed = ref false in
  let desc = mk_wcab_desc ~freed () in
  let m = Mbuf.make_wcab ~desc ~len:100 in
  let copy = Mbuf.copy_range m ~off:10 ~len:50 in
  Mbuf.free m;
  check_bool "still referenced" false !freed;
  Mbuf.free copy;
  check_bool "freed at last reference" true !freed

(* ---------- notify ---------- *)

let test_notify_counter () =
  let n = Mbuf.make_notify () in
  let woken = ref 0 in
  n.Mbuf.on_drained <- (fun () -> incr woken);
  Mbuf.notify_add n 3;
  Mbuf.notify_complete_n n 1;
  Mbuf.notify_complete_n n 1;
  check_int "not yet" 0 !woken;
  Mbuf.notify_complete_n n 1;
  check_int "woken at zero" 1 !woken;
  Mbuf.notify_complete_n n 1;
  check_int "extra complete clamped at zero" 0 n.Mbuf.dma_pending;
  check_int "extra complete wakes no one" 1 !woken

(* ---------- data access ---------- *)

let test_copy_into_across_chain () =
  let a = Mbuf.of_string ~pkthdr:true "abcdef" in
  let b = Mbuf.of_string "ghijkl" in
  Mbuf.append a b;
  assert_ok a;
  check_int "pkt_len updated" 12 (Mbuf.pkt_len a);
  let buf = Bytes.create 6 in
  Mbuf.copy_into a ~off:3 ~len:6 buf ~dst_off:0;
  check_str "straddles mbufs" "defghi" (Bytes.to_string buf);
  Mbuf.free a

let test_copy_from () =
  let m = Mbuf.of_string ~pkthdr:true "AAAAAAAAAA" in
  Mbuf.copy_from m ~off:2 ~len:3 (Bytes.of_string "xyz") ~src_off:0;
  check_str "patched" "AAxyzAAAAA" (Mbuf.to_string m);
  Mbuf.free m

let test_checksum_chain_parity () =
  (* Chain checksum must equal flat checksum even when mbuf boundaries are
     odd. *)
  let data = String.init 101 (fun i -> Char.chr ((i * 17 + 3) land 0xff)) in
  let a = Mbuf.of_string ~pkthdr:true (String.sub data 0 33) in
  let b = Mbuf.of_string (String.sub data 33 45) in
  let c = Mbuf.of_string (String.sub data 78 23) in
  Mbuf.append a b;
  Mbuf.append a c;
  let flat = csum_of_string data in
  check_bool "parity-correct chain checksum" true
    (csum_equal flat (Mbuf.checksum a ~off:0 ~len:101));
  (* Partial ranges too. *)
  let flat_part = Inet_csum.of_bytes ~off:31 ~len:50 (Bytes.of_string data) in
  check_bool "partial range" true
    (csum_equal flat_part (Mbuf.checksum a ~off:31 ~len:50));
  Mbuf.free a

(* The chain checksum walks the mbufs without a closure or ref cell: over
   an internal mbuf, a cluster and a UIO piece, with odd boundaries, it
   equals the flat sum and allocates nothing. *)
let test_checksum_alloc_free () =
  let data = String.init 1000 (fun i -> Char.chr ((i * 29 + 7) land 0xff)) in
  let a = Mbuf.of_string ~pkthdr:true (String.sub data 0 101) in
  let b = Mbuf.of_string (String.sub data 101 599) in
  let r = Addr_space.alloc (space ()) 300 in
  Region.blit_from_bytes
    (Bytes.of_string (String.sub data 700 300))
    ~src_off:0 r ~dst_off:0 ~len:300;
  Mbuf.append a b;
  Mbuf.append a (Mbuf.make_uio ~region:r ~notify:None);
  Alcotest.(check bool) "three kinds" true
    (Mbuf.chain_kinds a = [ Mbuf.K_internal; Mbuf.K_cluster; Mbuf.K_uio ]);
  let flat = Inet_csum.of_bytes ~off:3 ~len:990 (Bytes.of_string data) in
  check_bool "equals the flat sum" true
    (csum_equal flat (Mbuf.checksum a ~off:3 ~len:990));
  let w =
    Alloc_budget.measure 100 ~drain:ignore ~submit:(fun _ ->
        ignore (Mbuf.checksum a ~off:3 ~len:990 : Inet_csum.sum))
  in
  Alcotest.(check (float 0.)) "words per chain checksum" 0. w.submit;
  Mbuf.free a

(* A one-cell copy with a packet header allocates the mbuf (7 words), its
   pkthdr and that field's option box (8) and the storage wrapper (2):
   the cell comes from the warmed pool, and no fill or builder closure
   and no link option is built. *)
let test_of_bytes_one_cell_words () =
  let src = Bytes.make 200 'x' in
  let n = 100 in
  let chains = Array.make n (Mbuf.of_string "") in
  Array.iter Mbuf.free chains;
  let w =
    Alloc_budget.measure n
      ~submit:(fun i ->
        chains.(i - 1) <- Mbuf.of_bytes ~pkthdr:true ~off:8 ~len:120 src)
      ~drain:(fun () -> Array.iter Mbuf.free chains)
  in
  check_int "one cell" 1 (List.length (Mbuf.chain_kinds chains.(0)));
  check_int "pkt_len" 120 (Mbuf.pkt_len chains.(0));
  Alcotest.(check (float 0.)) "words per one-cell of_bytes" 17. w.submit

(* ---------- surgery ---------- *)

let test_prepend_uses_leading_space () =
  let m = Mbuf.of_string ~pkthdr:true "payload" in
  let m = Mbuf.prepend m 20 in
  assert_ok m;
  check_int "pkt len grew" 27 (Mbuf.pkt_len m);
  Mbuf.copy_from m ~off:0 ~len:20 (Bytes.make 20 'H') ~src_off:0;
  check_str "header+payload" (String.make 20 'H' ^ "payload")
    (Mbuf.to_string m);
  (* Second prepend should reuse leading space without a new mbuf. *)
  let count_before = List.length (Mbuf.chain_kinds m) in
  let m = Mbuf.prepend m 8 in
  check_int "no new mbuf" count_before (List.length (Mbuf.chain_kinds m));
  assert_ok m;
  Mbuf.free m

let test_prepend_descriptor_never_inline () =
  (* A UIO mbuf must never be written into: prepend must allocate. *)
  let sp = space () in
  let r = Addr_space.alloc sp 512 in
  let m = Mbuf.make_uio ~region:r ~notify:None in
  let m' = Mbuf.prepend m 40 in
  assert_ok m';
  Alcotest.(check bool) "new head is internal" true
    (Mbuf.kind m' = Mbuf.K_internal);
  check_int "length" 552 (Mbuf.pkt_len m');
  Mbuf.free m'

let test_prepend_larger_than_msize () =
  let m = Mbuf.of_string ~pkthdr:true "tail" in
  let m = Mbuf.prepend m 1000 in
  assert_ok m;
  check_int "length" 1004 (Mbuf.pkt_len m);
  Alcotest.(check bool) "head is a cluster" true
    (Mbuf.kind m = Mbuf.K_cluster);
  Mbuf.free m

let test_split_extremes () =
  let m = Mbuf.of_string ~pkthdr:true "abcdef" in
  let a, b = Mbuf.split m 0 in
  check_str "empty front" "" (Mbuf.to_string a);
  check_str "full back" "abcdef" (Mbuf.to_string b);
  Mbuf.free a;
  let c, d = Mbuf.split b 6 in
  check_str "full front" "abcdef" (Mbuf.to_string c);
  check_str "empty back" "" (Mbuf.to_string d);
  Mbuf.free c;
  Mbuf.free d

let test_adj_head_tail () =
  let m = Mbuf.of_string ~pkthdr:true "0123456789" in
  Mbuf.adj_head m 3;
  assert_ok m;
  check_str "head trimmed" "3456789" (Mbuf.to_string m);
  Mbuf.adj_tail m 2;
  assert_ok m;
  check_str "tail trimmed" "34567" (Mbuf.to_string m);
  check_int "pkt_len" 5 (Mbuf.pkt_len m);
  Mbuf.free m

let test_adj_across_mbufs () =
  let a = Mbuf.of_string ~pkthdr:true "abc" in
  Mbuf.append a (Mbuf.of_string "defg");
  Mbuf.append a (Mbuf.of_string "hi");
  Mbuf.adj_head a 5;
  assert_ok a;
  check_str "cross-mbuf head trim" "fghi" (Mbuf.to_string a);
  Mbuf.adj_tail a 3;
  assert_ok a;
  check_str "cross-mbuf tail trim" "f" (Mbuf.to_string a);
  Mbuf.free a

let test_pullup () =
  let a = Mbuf.of_string ~pkthdr:true "ab" in
  Mbuf.append a (Mbuf.of_string "cdef");
  let a = Mbuf.pullup a 5 in
  assert_ok a;
  check_bool "first mbuf holds 5" true (a.Mbuf.len >= 5);
  check_str "data preserved" "abcdef" (Mbuf.to_string a);
  Mbuf.free a

let test_copy_range_shares_clusters () =
  let m = Mbuf.of_string ~pkthdr:true (String.make 4000 'z') in
  let c = Mbuf.copy_range m ~off:100 ~len:3000 in
  assert_ok c;
  check_int "copy length" 3000 (Mbuf.pkt_len c);
  check_str "copy contents" (String.make 3000 'z') (Mbuf.to_string c);
  (* Share semantics: mutating the parent's cluster shows through. *)
  Mbuf.copy_from m ~off:100 ~len:4 (Bytes.of_string "EDIT") ~src_off:0;
  check_str "copy aliases parent storage" "EDIT"
    (String.sub (Mbuf.to_string c) 0 4);
  Mbuf.free c;
  Mbuf.free m

let test_copy_range_all () =
  let m = Mbuf.of_string ~pkthdr:true "watermelon" in
  let c = Mbuf.copy_range m ~off:0 ~len:(-1) in
  check_str "M_COPYALL" "watermelon" (Mbuf.to_string c);
  Mbuf.free c;
  Mbuf.free m

let test_split () =
  let m = Mbuf.of_string ~pkthdr:true "abcdefghij" in
  let front, back = Mbuf.split m 4 in
  assert_ok front;
  assert_ok back;
  check_str "front" "abcd" (Mbuf.to_string front);
  check_str "back" "efghij" (Mbuf.to_string back);
  check_int "front pkt" 4 (Mbuf.pkt_len front);
  check_int "back pkt" 6 (Mbuf.pkt_len back);
  Mbuf.free front;
  Mbuf.free back

(* ---------- properties ---------- *)

let arb_chunks =
  QCheck.(list_of_size Gen.(1 -- 6) (string_of_size Gen.(0 -- 600)))

let build_chain chunks =
  match chunks with
  | [] -> Mbuf.of_string ~pkthdr:true ""
  | first :: rest ->
      let head = Mbuf.of_string ~pkthdr:true first in
      List.iter (fun s -> Mbuf.append head (Mbuf.of_string s)) rest;
      head

let prop_chain_concat =
  QCheck.Test.make ~name:"append preserves data and lengths" ~count:200
    arb_chunks
    (fun chunks ->
      let m = build_chain chunks in
      let expect = String.concat "" chunks in
      let ok =
        Mbuf.to_string m = expect
        && Mbuf.pkt_len m = String.length expect
        && Mbuf.check_invariants m = Ok ()
      in
      Mbuf.free m;
      ok)

let prop_adj_equiv_substring =
  QCheck.Test.make ~name:"adj_head/adj_tail equal substring" ~count:200
    QCheck.(triple arb_chunks small_nat small_nat)
    (fun (chunks, h, t) ->
      let m = build_chain chunks in
      let s = String.concat "" chunks in
      let n = String.length s in
      let h = if n = 0 then 0 else h mod (n + 1) in
      let t = if n - h = 0 then 0 else t mod (n - h + 1) in
      Mbuf.adj_head m h;
      Mbuf.adj_tail m t;
      let ok =
        Mbuf.to_string m = String.sub s h (n - h - t)
        && Mbuf.check_invariants m = Ok ()
      in
      Mbuf.free m;
      ok)

let prop_split_concat =
  QCheck.Test.make ~name:"split then concat is identity" ~count:200
    QCheck.(pair arb_chunks small_nat)
    (fun (chunks, k) ->
      let m = build_chain chunks in
      let s = String.concat "" chunks in
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let front, back = Mbuf.split m k in
      let ok = Mbuf.to_string front ^ Mbuf.to_string back = s in
      Mbuf.free front;
      Mbuf.free back;
      ok)

let prop_checksum_matches_flat =
  QCheck.Test.make ~name:"chain checksum equals flat checksum" ~count:200
    arb_chunks
    (fun chunks ->
      let m = build_chain chunks in
      let s = String.concat "" chunks in
      let ok =
        csum_equal (csum_of_string s)
          (Mbuf.checksum m ~off:0 ~len:(String.length s))
      in
      Mbuf.free m;
      ok)

let prop_no_leaks =
  QCheck.Test.make ~name:"pool returns to zero after free" ~count:100
    arb_chunks
    (fun chunks ->
      Mbuf.Pool.reset ();
      let m = build_chain chunks in
      let c = Mbuf.copy_range m ~off:0 ~len:(-1) in
      Mbuf.free m;
      Mbuf.free c;
      pool "live" = 0)

let () =
  Alcotest.run "mbuf"
    [
      ( "construction",
        [
          Alcotest.test_case "of_string chains" `Quick test_of_string_chains;
          Alcotest.test_case "pool accounting" `Quick test_pool_accounting;
          Alcotest.test_case "pool recycle clean" `Quick
            test_pool_recycle_clean;
          Alcotest.test_case "pool steady-state allocs" `Quick
            test_pool_steady_state_allocs;
          Alcotest.test_case "uio mbuf" `Quick test_uio_mbuf;
          Alcotest.test_case "wcab outboard protection" `Quick
            test_wcab_outboard_protection;
          Alcotest.test_case "wcab free hook" `Quick test_wcab_free_hook;
          Alcotest.test_case "wcab shared free-once" `Quick
            test_wcab_shared_free_once;
          Alcotest.test_case "notify counter" `Quick test_notify_counter;
        ] );
      ( "access",
        [
          Alcotest.test_case "copy across chain" `Quick
            test_copy_into_across_chain;
          Alcotest.test_case "copy_from" `Quick test_copy_from;
          Alcotest.test_case "checksum parity" `Quick
            test_checksum_chain_parity;
          Alcotest.test_case "checksum allocates nothing" `Quick
            test_checksum_alloc_free;
          Alcotest.test_case "one-cell of_bytes words" `Quick
            test_of_bytes_one_cell_words;
        ] );
      ( "surgery",
        [
          Alcotest.test_case "prepend leading space" `Quick
            test_prepend_uses_leading_space;
          Alcotest.test_case "prepend descriptor" `Quick
            test_prepend_descriptor_never_inline;
          Alcotest.test_case "prepend > msize" `Quick
            test_prepend_larger_than_msize;
          Alcotest.test_case "split extremes" `Quick test_split_extremes;
          Alcotest.test_case "adj head/tail" `Quick test_adj_head_tail;
          Alcotest.test_case "adj across mbufs" `Quick test_adj_across_mbufs;
          Alcotest.test_case "pullup" `Quick test_pullup;
          Alcotest.test_case "copy_range shares" `Quick
            test_copy_range_shares_clusters;
          Alcotest.test_case "copy_range all" `Quick test_copy_range_all;
          Alcotest.test_case "split" `Quick test_split;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_chain_concat;
          QCheck_alcotest.to_alcotest prop_adj_equiv_substring;
          QCheck_alcotest.to_alcotest prop_split_concat;
          QCheck_alcotest.to_alcotest prop_checksum_matches_flat;
          QCheck_alcotest.to_alcotest prop_no_leaks;
        ] );
    ]
