(* Process-wide aggregates across every pin-cache instance, published in
   the central registry (per-instance counters stay on [t]). *)
let agg_hits = Obs.counter ~section:"pin_cache" ~name:"hits"
let agg_misses = Obs.counter ~section:"pin_cache" ~name:"misses"
let agg_evictions = Obs.counter ~section:"pin_cache" ~name:"evictions"
let agg_pin_failures = Obs.counter ~section:"pin_cache" ~name:"pin_failures"

type entry = {
  region : Region.t;
  pages : int;
  mutable last_used : int;  (* LRU stamp *)
}

type t = {
  space : Addr_space.t;
  max_pages : int;
  table : (int * int, entry) Hashtbl.t;  (* (vaddr, len) -> entry *)
  mutable clock : int;
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~space ~max_pages =
  {
    space;
    max_pages;
    table = Hashtbl.create 16;
    clock = 0;
    resident = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let key region = (Region.vaddr region, Region.length region)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | None -> Some e
        | Some best -> if e.last_used < best.last_used then Some e else acc)
      t.table None
  in
  match victim with
  | None -> Simtime.zero
  | Some e ->
      Hashtbl.remove t.table (key e.region);
      t.resident <- t.resident - e.pages;
      t.evictions <- t.evictions + 1;
      Obs.Counter.incr agg_evictions;
      Addr_space.unpin t.space e.region

let acquire t region =
  match Hashtbl.find_opt t.table (key region) with
  | Some e ->
      e.last_used <- tick t;
      t.hits <- t.hits + 1;
      Obs.Counter.incr agg_hits;
      Simtime.zero
  | None ->
      t.misses <- t.misses + 1;
      Obs.Counter.incr agg_misses;
      let pages =
        Region.pages
          ~page_size:(Addr_space.profile t.space).Host_profile.page_size
          region
      in
      (* Make room first: lazy unpinning bounds total pinned pages. *)
      let evict_cost = ref Simtime.zero in
      while t.resident > 0 && t.resident + pages > t.max_pages do
        evict_cost := Simtime.add !evict_cost (evict_lru t)
      done;
      let pin_cost = Addr_space.pin t.space region in
      let map_cost = Addr_space.map_into_kernel t.space region in
      let e = { region; pages; last_used = tick t } in
      Hashtbl.replace t.table (key region) e;
      t.resident <- t.resident + pages;
      Simtime.add !evict_cost (Simtime.add pin_cost map_cost)

let try_acquire t region =
  match Hashtbl.find_opt t.table (key region) with
  | Some e ->
      (* A resident buffer is already wired: hits never consult the fault
         site, the injected failure models the *pin* syscall refusing. *)
      e.last_used <- tick t;
      t.hits <- t.hits + 1;
      Obs.Counter.incr agg_hits;
      Ok Simtime.zero
  | None -> (
      t.misses <- t.misses + 1;
      Obs.Counter.incr agg_misses;
      let pages =
        Region.pages
          ~page_size:(Addr_space.profile t.space).Host_profile.page_size
          region
      in
      let evict_cost = ref Simtime.zero in
      while t.resident > 0 && t.resident + pages > t.max_pages do
        evict_cost := Simtime.add !evict_cost (evict_lru t)
      done;
      match Addr_space.try_pin t.space region with
      | Error `Pin_exhausted ->
          Obs.Counter.incr agg_pin_failures;
          (* Eviction work already done stays done (and charged): the
             kernel freed pages before discovering it could not wire the
             new buffer. *)
          Error (`Pin_exhausted !evict_cost)
      | Ok pin_cost ->
          let map_cost = Addr_space.map_into_kernel t.space region in
          let e = { region; pages; last_used = tick t } in
          Hashtbl.replace t.table (key region) e;
          t.resident <- t.resident + pages;
          Ok (Simtime.add !evict_cost (Simtime.add pin_cost map_cost)))

let release _t _region = Simtime.zero

let is_resident t region = Hashtbl.mem t.table (key region)

let flush t =
  let cost =
    Hashtbl.fold
      (fun _ e acc -> Simtime.add acc (Addr_space.unpin t.space e.region))
      t.table Simtime.zero
  in
  Hashtbl.reset t.table;
  t.resident <- 0;
  cost

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let resident_pages t = t.resident
