let agg_pin_failures = Obs.counter ~section:"addr_space" ~name:"pin_failures"

(* Process-wide aggregates of the pinned-buffer caches (per-space counts
   stay on [t]). *)
let agg_hits = Obs.counter ~section:"pin_cache" ~name:"hits"
let agg_misses = Obs.counter ~section:"pin_cache" ~name:"misses"
let agg_evictions = Obs.counter ~section:"pin_cache" ~name:"evictions"
let agg_cache_pin_failures =
  Obs.counter ~section:"pin_cache" ~name:"pin_failures"

(* Every space owns a 4 GByte window of virtual addresses: space [n]
   allocates from [n lsl 32] up.  A vaddr thus names its space
   ([vaddr lsr 32]), so page keys and cache entries of two spaces never
   collide. *)
let window_bits = 32
let spaces = ref 0

(* A region the cache keeps wired. *)
type wired = {
  region : Region.t;
  pages : int;
  mutable last_used : int;  (* LRU stamp *)
}

type t = {
  profile : Host_profile.t;
  name : string;
  mutable brk : int;  (* next free virtual address *)
  limit : int;  (* end of the space's window *)
  pins : (int, int) Hashtbl.t;  (* page index -> pin refcount *)
  pin_budget : int;  (* pages the cache may keep wired *)
  mutable cache : wired list;
      (* one entry per (vaddr, length).  A list, so a space that never
         wires allocates nothing for its cache *)
  mutable clock : int;
  mutable cached_pages : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(pin_budget = 1024) ~profile ~name () =
  let window = !spaces lsl window_bits in
  incr spaces;
  {
    profile;
    name;
    (* Start away from the window's base so a vaddr of 0 in a test is
       clearly a bug, and on a page boundary. *)
    brk = window + (16 * profile.Host_profile.page_size);
    limit = window + (1 lsl window_bits);
    pins = Hashtbl.create 64;
    pin_budget;
    cache = [];
    clock = 0;
    cached_pages = 0;
    hits = 0;
    misses = 0;
  }

let grow t base len =
  if base + len > t.limit then invalid_arg "Addr_space.alloc: window full";
  t.brk <- base + len;
  Region.create ~vaddr:base len

let alloc t ?align len =
  let align =
    match align with Some a -> a | None -> t.profile.Host_profile.page_size
  in
  if align <= 0 then invalid_arg "Addr_space.alloc: align must be positive";
  grow t (Page.round_up ~page_size:align t.brk) len

let alloc_at_offset t ~page_offset len =
  let page_size = t.profile.Host_profile.page_size in
  if page_offset < 0 || page_offset >= page_size then
    invalid_arg "Addr_space.alloc_at_offset: offset out of page";
  grow t (Page.round_up ~page_size t.brk + page_offset) len

(* The region covers pages [first_page .. first_page + page_count - 1]. *)
let first_page t region =
  Region.vaddr region / t.profile.Host_profile.page_size

let page_count t region =
  Region.pages ~page_size:t.profile.Host_profile.page_size region

let pin_count t p =
  match Hashtbl.find t.pins p with c -> c | exception Not_found -> 0

let pin t region =
  let first = first_page t region and n = page_count t region in
  for p = first to first + n - 1 do
    let c = pin_count t p in
    Hashtbl.replace t.pins p (c + 1)
  done;
  Memcost.pin t.profile ~pages:n

(* The fault site ["vm.pin_fail"]: the kernel refusing to wire more
   pages (resident-set limit, fragmentation). *)
let pin_refused () =
  let refused = Fault.fire "vm.pin_fail" in
  if refused then Obs.Counter.incr agg_pin_failures;
  refused

let unpin t region =
  let first = first_page t region and n = page_count t region in
  for p = first to first + n - 1 do
    match pin_count t p with
    | 0 ->
        invalid_arg
          (Printf.sprintf "Addr_space.unpin(%s): page %d not pinned" t.name p)
    | 1 -> Hashtbl.remove t.pins p
    | c -> Hashtbl.replace t.pins p (c - 1)
  done;
  Memcost.unpin t.profile ~pages:n

let pinned_pages t = Hashtbl.length t.pins

(* A drain check counts the references held outside the cache: a cache
   that keeps buffers wired is working, not leaking, and two cached
   buffers that share a page hold two references. *)
let uncached_pin_refs t =
  Hashtbl.fold (fun _ c refs -> refs + c) t.pins 0 - t.cached_pages

let map_into_kernel t region =
  Memcost.map t.profile ~pages:(page_count t region)

(* ---------- the pinned-buffer cache (§4.4.1) ---------- *)

(* What [find] returns for a region the cache does not hold. *)
let absent = { region = Region.create ~vaddr:0 0; pages = 0; last_used = 0 }

let rec find region = function
  | [] -> absent
  | e :: rest ->
      if
        Region.vaddr e.region = Region.vaddr region
        && Region.length e.region = Region.length region
      then e
      else find region rest

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let evict_lru t =
  match t.cache with
  | [] -> Simtime.zero
  | e :: rest ->
      let victim =
        List.fold_left
          (fun v e -> if e.last_used < v.last_used then e else v)
          e rest
      in
      t.cache <- List.filter (fun e -> e != victim) t.cache;
      t.cached_pages <- t.cached_pages - victim.pages;
      Obs.Counter.incr agg_evictions;
      unpin t victim.region

let wire t region ~cached =
  let e = if cached then find region t.cache else absent in
  if e != absent then begin
    (* A cached buffer is already wired: hits never consult the fault
       site, which models the pin syscall refusing. *)
    e.last_used <- tick t;
    t.hits <- t.hits + 1;
    Obs.Counter.incr agg_hits;
    Ok Simtime.zero
  end
  else begin
    (* A cache miss first evicts down to the budget (lazy unpinning
       bounds the pages held).  A refused pin keeps the eviction work
       done, and charged: the kernel freed pages before it found it
       could not wire the new buffer. *)
    let pages = page_count t region in
    let evict_cost = ref Simtime.zero in
    if cached then begin
      t.misses <- t.misses + 1;
      Obs.Counter.incr agg_misses;
      while t.cached_pages > 0 && t.cached_pages + pages > t.pin_budget do
        evict_cost := Simtime.add !evict_cost (evict_lru t)
      done
    end;
    if pin_refused () then begin
      if cached then Obs.Counter.incr agg_cache_pin_failures;
      Error !evict_cost
    end
    else begin
      let pin_cost = pin t region in
      let map_cost = map_into_kernel t region in
      if cached then begin
        t.cache <- { region; pages; last_used = tick t } :: t.cache;
        t.cached_pages <- t.cached_pages + pages
      end;
      Ok (Simtime.add !evict_cost (Simtime.add pin_cost map_cost))
    end
  end

let unwire t region ~cached =
  if cached then Simtime.zero else unpin t region

let is_cached t region = find region t.cache != absent

let cache_hits t = t.hits
let cache_misses t = t.misses
