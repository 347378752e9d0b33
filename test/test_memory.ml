(* Tests for regions, cost model, and the VM subsystem. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Page ---------- *)

let test_page_count () =
  check_int "within one page" 1 (Page.count ~page_size:8192 ~base:0 ~len:100);
  check_int "exactly one page" 1 (Page.count ~page_size:8192 ~base:0 ~len:8192);
  check_int "straddles boundary" 2
    (Page.count ~page_size:8192 ~base:8000 ~len:400);
  check_int "32KB aligned" 4 (Page.count ~page_size:8192 ~base:0 ~len:32768);
  check_int "32KB misaligned" 5
    (Page.count ~page_size:8192 ~base:4096 ~len:32768);
  check_int "zero length" 0 (Page.count ~page_size:8192 ~base:0 ~len:0)

(* ---------- Region ---------- *)

let test_region_sub_and_blit () =
  let r = Region.create ~vaddr:0x10000 256 in
  Region.fill_pattern r ~seed:7;
  let s = Region.sub r ~off:100 ~len:50 in
  check_int "sub vaddr" (0x10000 + 100) (Region.vaddr s);
  check_int "sub length" 50 (Region.length s);
  (* sub shares storage with parent *)
  let b = Bytes.create 1 in
  Region.blit_to_bytes s ~src_off:0 b ~dst_off:0 ~len:1;
  let b2 = Bytes.create 1 in
  Region.blit_to_bytes r ~src_off:100 b2 ~dst_off:0 ~len:1;
  Alcotest.(check char) "shared bytes" (Bytes.get b2 0) (Bytes.get b 0);
  Region.blit_from_bytes (Bytes.of_string "\xAB") ~src_off:0 s ~dst_off:0 ~len:1;
  Region.blit_to_bytes r ~src_off:100 b2 ~dst_off:0 ~len:1;
  Alcotest.(check char) "write through sub" '\xAB' (Bytes.get b2 0)

let test_region_bounds () =
  let r = Region.create ~vaddr:0 16 in
  Alcotest.check_raises "sub out of range"
    (Invalid_argument "Region.sub: off=10 len=10 in region of 16") (fun () ->
      ignore (Region.sub r ~off:10 ~len:10))

let test_region_alignment () =
  check_bool "aligned" true (Region.is_word_aligned (Region.create ~vaddr:4096 8));
  check_bool "odd" false (Region.is_word_aligned (Region.create ~vaddr:4097 8));
  check_bool "halfword" false
    (Region.is_word_aligned (Region.create ~vaddr:4098 8))

let prop_fill_pattern_roundtrip =
  QCheck.Test.make ~name:"pattern fill is deterministic per seed" ~count:100
    QCheck.(pair small_nat (int_range 1 500))
    (fun (seed, len) ->
      let a = Region.create ~vaddr:0 len and b = Region.create ~vaddr:64 len in
      Region.fill_pattern a ~seed;
      Region.fill_pattern b ~seed;
      Region.equal_contents a b)

(* ---------- Memcost ---------- *)

let p = Host_profile.alpha400

let test_cost_calibration () =
  (* The paper's §7.3 numbers: a cold 1 MByte copy at 350 Mbit/s takes
     ~23.97 ms. *)
  let t = Memcost.copy p ~locality:Memcost.Cold (1024 * 1024) in
  let expect_ms = 8. *. 1024. *. 1024. /. 350e6 *. 1e3 in
  Alcotest.(check (float 0.01)) "1MB cold copy (ms)" expect_ms (Simtime.to_ms t);
  (* Table 2: pin of 4 pages = 35 + 29*4 = 151 us. *)
  check_int "pin 4 pages" (Simtime.us 151.) (Memcost.pin p ~pages:4);
  check_int "unpin 4 pages" (Simtime.us (48. +. (3.9 *. 4.)))
    (Memcost.unpin p ~pages:4);
  check_int "map 4 pages" (Simtime.us 24.) (Memcost.map p ~pages:4)

let test_cost_locality () =
  let cold = Memcost.copy p ~locality:Memcost.Cold 65536 in
  let hot = Memcost.copy p ~locality:(Memcost.Working_set 65536) 65536 in
  check_bool "cached copy faster" true (hot < cold);
  let huge = Memcost.copy p ~locality:(Memcost.Working_set (16 * 1024 * 1024)) 65536 in
  check_int "huge working set = cold" cold huge

let test_effective_bw_blend () =
  let cache = p.Host_profile.cache_bytes in
  let cost ws = Memcost.copy p ~locality:(Memcost.Working_set ws) 65536 in
  let cold = Memcost.copy p ~locality:Memcost.Cold 65536 in
  check_int "fits quarter: fully cached" (cost (cache / 8)) (cost (cache / 4));
  check_int "cache-filling is cold" cold (cost cache);
  check_bool "between" true
    (cost (cache / 2) > cost (cache / 4) && cost (cache / 2) < cold)

let test_fused_copy_checksum () =
  let copy = Memcost.copy p ~locality:Memcost.Cold 32768 in
  let fused = Memcost.copy_with_checksum p ~locality:Memcost.Cold 32768 in
  let separate = copy + Memcost.checksum_read p ~locality:Memcost.Cold 32768 in
  check_bool "fused beats separate passes" true (fused < separate);
  check_bool "fused costs more than plain copy" true (fused > copy)

(* ---------- Addr_space ---------- *)

let space () = Addr_space.create ~profile:p ~name:"test" ()

let test_alloc_alignment () =
  let sp = space () in
  let r = Addr_space.alloc sp 100 in
  check_bool "page aligned by default" true
    (Region.vaddr r mod p.Host_profile.page_size = 0);
  let r2 = Addr_space.alloc sp ~align:4 100 in
  check_bool "word aligned" true (Region.vaddr r2 mod 4 = 0);
  check_bool "distinct addresses" true (Region.vaddr r <> Region.vaddr r2);
  (* The next 4 GByte boundary starts another space's window. *)
  check_bool "window end reachable" true
    (Region.length (Addr_space.alloc sp ~align:(1 lsl 32) 0) = 0);
  check_bool "outgrowing the window raises" true
    (match Addr_space.alloc sp ~align:(1 lsl 32) 1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_alloc_misaligned () =
  let sp = space () in
  let r = Addr_space.alloc_at_offset sp ~page_offset:2 64 in
  check_bool "deliberately unaligned" false (Region.is_word_aligned r)

(* Cache evictions, read from the process-wide registry as their rise
   since a snapshot taken when a test starts. *)
let evictions_now () = Obs.value ~section:"pin_cache" ~name:"evictions"
let evictions base = int_of_float (evictions_now () -. base)

let test_pin_refcount () =
  let sp = space () in
  let r = Addr_space.alloc sp 32768 in
  let c1 = Addr_space.pin sp r in
  check_int "pin cost 4 pages" (Simtime.us 151.) c1;
  check_int "4 pages pinned" 4 (Addr_space.pinned_pages sp);
  (* Overlapping second pin. *)
  let half = Region.sub r ~off:0 ~len:16384 in
  ignore (Addr_space.pin sp half);
  check_int "six page references" 6 (Addr_space.uncached_pin_refs sp);
  ignore (Addr_space.unpin sp r);
  check_int "2 pages remain" 2 (Addr_space.pinned_pages sp);
  ignore (Addr_space.unpin sp half);
  check_int "all released" 0 (Addr_space.pinned_pages sp);
  check_int "no reference left" 0 (Addr_space.uncached_pin_refs sp)

let test_unpin_unpinned_rejected () =
  let sp = space () in
  let r = Addr_space.alloc sp 100 in
  check_bool "unpin without pin raises" true
    (try
       ignore (Addr_space.unpin sp r);
       false
     with Invalid_argument _ -> true)

(* ---------- the pinned-buffer cache (Addr_space.wire ~cached) ---------- *)

let cached_space ~pin_budget =
  Addr_space.create ~pin_budget ~profile:p ~name:"test" ()

(* A cached wire that must succeed (the fault plane is disarmed). *)
let wire sp r =
  match Addr_space.wire sp r ~cached:true with
  | Ok cost -> cost
  | Error _ -> Alcotest.fail "pin refused with faults disarmed"

let test_pin_cache_amortization () =
  let sp = cached_space ~pin_budget:64 in
  let r = Addr_space.alloc sp 32768 in
  let first = wire sp r in
  check_bool "first acquire costs" true (first > 0);
  let again = wire sp r in
  check_int "hit is free" 0 again;
  check_int "hits" 1 (Addr_space.cache_hits sp);
  check_int "misses" 1 (Addr_space.cache_misses sp);
  ignore (Addr_space.unwire sp r ~cached:true);
  check_int "release is lazy (still resident)" 4 (Addr_space.pinned_pages sp);
  check_int "a cached buffer holds no reference outside the cache" 0
    (Addr_space.uncached_pin_refs sp)

let test_pin_cache_eviction () =
  (* Budget of 8 pages; each buffer takes 4. *)
  let base = evictions_now () in
  let sp = cached_space ~pin_budget:8 in
  let a = Addr_space.alloc sp 32768 in
  let b = Addr_space.alloc sp 32768 in
  let c = Addr_space.alloc sp 32768 in
  ignore (wire sp a);
  ignore (wire sp b);
  ignore (wire sp c);
  check_int "one eviction" 1 (evictions base);
  check_int "resident bounded" 8 (Addr_space.pinned_pages sp);
  check_int "every pin is the cache's" 0 (Addr_space.uncached_pin_refs sp);
  (* LRU: [a] was evicted, so it misses; [c] hits. *)
  ignore (wire sp c);
  check_int "c still resident" 1 (Addr_space.cache_hits sp);
  let cost_a = wire sp a in
  check_bool "a was evicted" true (cost_a > 0)

let test_pin_cache_lru_touch_refreshes () =
  let base = evictions_now () in
  let sp = cached_space ~pin_budget:8 in
  let a = Addr_space.alloc sp 32768 in
  let b = Addr_space.alloc sp 32768 in
  let c = Addr_space.alloc sp 32768 in
  ignore (wire sp a);
  ignore (wire sp b);
  (* Touch [a]: now [b] is the least recently used entry. *)
  check_int "touch is a hit" 0 (wire sp a);
  ignore (wire sp c);
  check_int "one eviction" 1 (evictions base);
  check_int "a survived" 0 (wire sp a);
  check_bool "b was the victim" true (wire sp b > 0)

let test_pin_cache_eviction_cost_charged () =
  let sp = cached_space ~pin_budget:8 in
  let a = Addr_space.alloc sp 32768 in
  let b = Addr_space.alloc sp 32768 in
  let c = Addr_space.alloc sp 32768 in
  let cost_a = wire sp a in
  check_int "miss without eviction = pin + map"
    (Memcost.pin p ~pages:4 + Memcost.map p ~pages:4)
    cost_a;
  ignore (wire sp b);
  (* The cache is full: wiring [c] must also pay [a]'s unpin, folded
     into the faulting wire's cost rather than billed elsewhere. *)
  let cost_c = wire sp c in
  check_int "evicting miss also pays the victim's unpin"
    (cost_a + Memcost.unpin p ~pages:4)
    cost_c

let test_pin_cache_keys_storage () =
  (* Every space starts its break at the same page of its own window, so
     buffers of two spaces sit at one offset but at distinct vaddrs.
     Wired through a third space, the second buffer is not the first: it
     misses, pays its own pin and pins its own pages. *)
  let a = Addr_space.alloc (space ()) 65536 in
  let b = Addr_space.alloc (space ()) 65536 in
  let window_offset r = Region.vaddr r land 0xFFFF_FFFF in
  check_int "a's offset in its window" 131072 (window_offset a);
  check_int "b's offset in its window" 131072 (window_offset b);
  check_bool "distinct vaddrs" true (Region.vaddr a <> Region.vaddr b);
  let sp = cached_space ~pin_budget:64 in
  ignore (wire sp a);
  let cost_b = wire sp b in
  check_int "16 pages pinned" 16 (Addr_space.pinned_pages sp);
  check_int "b pays pin + map (309 us)"
    (Memcost.pin p ~pages:8 + Memcost.map p ~pages:8)
    cost_b;
  check_int "two misses" 2 (Addr_space.cache_misses sp);
  check_int "no hit" 0 (Addr_space.cache_hits sp);
  check_int "a is still a hit" 0 (wire sp a)

let prop_pin_cache_bounded =
  QCheck.Test.make ~name:"pin cache never exceeds its page budget"
    ~count:200
    QCheck.(
      pair (int_range 4 32)
        (list_of_size Gen.(1 -- 40) (pair (int_bound 15) (int_range 1 65536))))
    (fun (budget, ops) ->
      let sp = cached_space ~pin_budget:budget in
      let regions = Hashtbl.create 8 in
      let ok = ref true in
      List.iter
        (fun (slot, size) ->
          let r =
            match Hashtbl.find_opt regions slot with
            | Some r -> r
            | None ->
                let r = Addr_space.alloc sp size in
                Hashtbl.add regions slot r;
                r
          in
          ignore (wire sp r);
          (* The budget can only be exceeded transiently by a single
             too-large buffer; steady state must respect it whenever the
             last buffer itself fits. *)
          let pages = Region.pages ~page_size:p.Host_profile.page_size r in
          if pages <= budget && Addr_space.pinned_pages sp > budget then
            ok := false)
        ops;
      !ok && Addr_space.uncached_pin_refs sp = 0)

(* ---------- Host profiles ---------- *)

let test_profiles () =
  check_bool "alpha400 exists" true (Host_profile.by_name "alpha400" <> None);
  check_bool "alpha300lx exists" true
    (Host_profile.by_name "alpha300lx" <> None);
  check_bool "unknown absent" true (Host_profile.by_name "vax" = None);
  let a4 = Host_profile.alpha400 and a3 = Host_profile.alpha300lx in
  check_bool "300lx slower copy" true
    (a3.Host_profile.copy_bw_nolocal < a4.Host_profile.copy_bw_nolocal);
  check_bool "300lx slower bus" true
    (a3.Host_profile.bus_bw < a4.Host_profile.bus_bw)

let () =
  Alcotest.run "memory"
    [
      ("page", [ Alcotest.test_case "count" `Quick test_page_count ]);
      ( "region",
        [
          Alcotest.test_case "sub and blit" `Quick test_region_sub_and_blit;
          Alcotest.test_case "bounds" `Quick test_region_bounds;
          Alcotest.test_case "alignment" `Quick test_region_alignment;
          QCheck_alcotest.to_alcotest prop_fill_pattern_roundtrip;
        ] );
      ( "memcost",
        [
          Alcotest.test_case "paper calibration" `Quick test_cost_calibration;
          Alcotest.test_case "locality" `Quick test_cost_locality;
          Alcotest.test_case "bandwidth blend" `Quick test_effective_bw_blend;
          Alcotest.test_case "fused copy+checksum" `Quick
            test_fused_copy_checksum;
        ] );
      ( "addr_space",
        [
          Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
          Alcotest.test_case "misaligned alloc" `Quick test_alloc_misaligned;
          Alcotest.test_case "pin refcount" `Quick test_pin_refcount;
          Alcotest.test_case "bad unpin" `Quick test_unpin_unpinned_rejected;
        ] );
      ( "pin_cache",
        [
          Alcotest.test_case "amortization" `Quick test_pin_cache_amortization;
          Alcotest.test_case "eviction" `Quick test_pin_cache_eviction;
          Alcotest.test_case "lru touch refresh" `Quick
            test_pin_cache_lru_touch_refreshes;
          Alcotest.test_case "eviction cost charged to acquire" `Quick
            test_pin_cache_eviction_cost_charged;
          Alcotest.test_case "equal vaddrs of two spaces" `Quick
            test_pin_cache_keys_storage;
          QCheck_alcotest.to_alcotest prop_pin_cache_bounded;
        ] );
      ("profiles", [ Alcotest.test_case "sanity" `Quick test_profiles ]);
    ]
