(* A size class's free buffers are a stack in [bufs.(0 .. depth-1)], so
   filing a buffer allocates nothing. *)
type klass = { bufs : Bytes.t array; mutable depth : int }

type t = {
  classes : (int, klass) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable free_total : int;
  mutable outstanding : int;  (* gets minus puts: buffers in flight *)
}

(* Each size class keeps at most this many free buffers; surplus puts
   are dropped to the GC. *)
let max_per_class = 64

let get t n =
  t.outstanding <- t.outstanding + 1;
  match Hashtbl.find t.classes n with
  | k when k.depth > 0 ->
      k.depth <- k.depth - 1;
      let b = k.bufs.(k.depth) in
      k.bufs.(k.depth) <- Bytes.empty;
      t.free_total <- t.free_total - n;
      t.hits <- t.hits + 1;
      b
  | _ | (exception Not_found) ->
      t.misses <- t.misses + 1;
      Bytes.create n

let put t b =
  (* Counted even when the class is full and the buffer is dropped to the
     GC: [outstanding] measures caller get/put balance, not pool depth. *)
  t.outstanding <- t.outstanding - 1;
  let n = Bytes.length b in
  let k =
    match Hashtbl.find t.classes n with
    | k -> k
    | exception Not_found ->
        let k = { bufs = Array.make max_per_class Bytes.empty; depth = 0 } in
        Hashtbl.replace t.classes n k;
        k
  in
  if k.depth < max_per_class then begin
    k.bufs.(k.depth) <- b;
    k.depth <- k.depth + 1;
    t.free_total <- t.free_total + n
  end

let hit_count t = t.hits
let miss_count t = t.misses

let hit_rate t =
  let h = hit_count t and m = miss_count t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let free_bytes t = t.free_total

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let shared =
  {
    classes = Hashtbl.create 8;
    hits = 0;
    misses = 0;
    free_total = 0;
    outstanding = 0;
  }

(* The shared instance is the one the datapath uses; publish it. *)
let () =
  let s = "bufpool" in
  Obs.gauge ~section:s ~name:"hits" (fun () -> float_of_int (hit_count shared));
  Obs.gauge ~section:s ~name:"misses" (fun () ->
      float_of_int (miss_count shared));
  Obs.gauge ~section:s ~name:"hit_rate" (fun () -> hit_rate shared);
  Obs.gauge ~section:s ~name:"free_bytes" (fun () ->
      float_of_int (free_bytes shared));
  Obs.gauge ~section:s ~name:"outstanding" (fun () ->
      float_of_int shared.outstanding)
