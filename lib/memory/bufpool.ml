type klass = { mutable bufs : Bytes.t list; mutable depth : int }

type t = {
  classes : (int, klass) Hashtbl.t;
  max_per_class : int;
  mutable hits : int;
  mutable misses : int;
  mutable free_total : int;
  mutable outstanding : int;  (* gets minus puts: buffers in flight *)
  (* Per-shard free lists, active only when [set_shard_count n] with
     n > 1 was called (multi-shard host): [get]/[put] then prefer the
     current shard's private classes, spilling to / refilling from the
     global [classes] above.  Hit/miss/outstanding accounting stays on
     the shared counters so leak detection is shard-agnostic. *)
  mutable locals : (int, klass) Hashtbl.t array;
  mutable cur : int;
  mutable local_free : int;
  local_cap : int;  (* per-shard per-class depth cap *)
}

let create ?(max_per_class = 64) () =
  {
    classes = Hashtbl.create 8;
    max_per_class;
    hits = 0;
    misses = 0;
    free_total = 0;
    outstanding = 0;
    locals = [||];
    cur = 0;
    local_free = 0;
    local_cap = max 1 (max_per_class / 4);
  }

let global_get t n =
  match Hashtbl.find_opt t.classes n with
  | Some ({ bufs = b :: tl; _ } as k) ->
      k.bufs <- tl;
      k.depth <- k.depth - 1;
      t.free_total <- t.free_total - n;
      Some b
  | Some _ | None -> None

let get t n =
  t.outstanding <- t.outstanding + 1;
  let local =
    if Array.length t.locals = 0 then None
    else
      match Hashtbl.find_opt t.locals.(t.cur) n with
      | Some ({ bufs = b :: tl; _ } as k) ->
          k.bufs <- tl;
          k.depth <- k.depth - 1;
          t.local_free <- t.local_free - n;
          Some b
      | Some _ | None -> None
  in
  match local with
  | Some b ->
      t.hits <- t.hits + 1;
      b
  | None -> (
      match global_get t n with
      | Some b ->
          t.hits <- t.hits + 1;
          b
      | None ->
          t.misses <- t.misses + 1;
          Bytes.create n)

let global_put t b n =
  let k =
    match Hashtbl.find_opt t.classes n with
    | Some k -> k
    | None ->
        let k = { bufs = []; depth = 0 } in
        Hashtbl.replace t.classes n k;
        k
  in
  if k.depth < t.max_per_class then begin
    k.bufs <- b :: k.bufs;
    k.depth <- k.depth + 1;
    t.free_total <- t.free_total + n
  end

let put t b =
  (* Counted even when the class is full and the buffer is dropped to the
     GC: [outstanding] measures caller get/put balance, not pool depth. *)
  t.outstanding <- t.outstanding - 1;
  let n = Bytes.length b in
  if Array.length t.locals = 0 then global_put t b n
  else begin
    let tbl = t.locals.(t.cur) in
    let k =
      match Hashtbl.find_opt tbl n with
      | Some k -> k
      | None ->
          let k = { bufs = []; depth = 0 } in
          Hashtbl.replace tbl n k;
          k
    in
    if k.depth < t.local_cap then begin
      k.bufs <- b :: k.bufs;
      k.depth <- k.depth + 1;
      t.local_free <- t.local_free + n
    end
    else global_put t b n
  end

let spill_locals t =
  Array.iter
    (fun tbl ->
      Hashtbl.iter
        (fun n k -> List.iter (fun b -> global_put t b n) k.bufs)
        tbl;
      Hashtbl.reset tbl)
    t.locals;
  t.local_free <- 0

let set_shard_count t n =
  if n < 1 then invalid_arg "Bufpool.set_shard_count";
  if n <> max 1 (Array.length t.locals) then begin
    spill_locals t;
    t.locals <-
      (if n > 1 then Array.init n (fun _ -> Hashtbl.create 8) else [||]);
    t.cur <- 0
  end

let set_current t i =
  if Array.length t.locals > 0 && i >= 0 && i < Array.length t.locals then
    t.cur <- i

let shard_count t = max 1 (Array.length t.locals)

let trim t =
  let released = t.free_total + t.local_free in
  Hashtbl.reset t.classes;
  t.free_total <- 0;
  Array.iter Hashtbl.reset t.locals;
  t.local_free <- 0;
  released

let hit_count t = t.hits
let miss_count t = t.misses

let hit_rate t =
  let h = hit_count t and m = miss_count t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let free_bytes t = t.free_total + t.local_free
let local_free_bytes t = t.local_free
let outstanding t = t.outstanding

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let shared = create ()

(* The shared instance is the one the datapath uses; publish it. *)
let () =
  let s = "bufpool" in
  Obs.gauge ~section:s ~name:"hits" (fun () -> float_of_int (hit_count shared));
  Obs.gauge ~section:s ~name:"misses" (fun () ->
      float_of_int (miss_count shared));
  Obs.gauge ~section:s ~name:"hit_rate" (fun () -> hit_rate shared);
  Obs.gauge ~section:s ~name:"free_bytes" (fun () ->
      float_of_int (free_bytes shared));
  Obs.gauge ~section:s ~name:"free_bytes_local" (fun () ->
      float_of_int (local_free_bytes shared));
  Obs.gauge ~section:s ~name:"outstanding" (fun () ->
      float_of_int (outstanding shared))
