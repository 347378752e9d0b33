type 'a entry = { time : Simtime.t; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry option array;
  (* [heap] is a dense binary min-heap in [0, size); slot 0 is the root.
     Slots at and beyond [size] are [None], so a popped entry's payload
     becomes unreachable immediately — the old entry-array representation
     kept the last popped event (and whatever closures it captured) alive
     in [heap.(size)] until a later push overwrote the slot. *)
  mutable size : int;
  mutable dead : int;
  (* Entries whose payload the owner has invalidated (cancelled or
     re-armed timers).  They still occupy heap slots until they reach the
     root or a compaction removes them; tracking the count lets the owner
     bound the garbage instead of letting a cancel-heavy workload grow
     the heap without bound. *)
  mutable compactions : int;
}

let create () = { heap = [||]; size = 0; dead = 0; compactions = 0 }

let is_empty q = q.size = 0
let length q = q.size

let before a b =
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

let get q i =
  match q.heap.(i) with
  | Some e -> e
  | None -> assert false (* dense in [0, size) *)

let grow q =
  let cap = Array.length q.heap in
  if q.size = cap then begin
    let ncap = Stdlib.max 16 (2 * cap) in
    let nheap = Array.make ncap None in
    Array.blit q.heap 0 nheap 0 q.size;
    q.heap <- nheap
  end

let push_seq q ~time ~seq payload =
  let entry = { time; seq; payload } in
  grow q;
  (* One box shared by every sift-up swap. *)
  let boxed = Some entry in
  let i = ref q.size in
  q.size <- q.size + 1;
  q.heap.(!i) <- boxed;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before entry (get q parent) then begin
      q.heap.(!i) <- q.heap.(parent);
      q.heap.(parent) <- boxed;
      i := parent
    end
    else continue := false
  done

(* Sift the entry boxed at [i0] down to its place.  The box is shared for
   the whole walk (the same trick [push_seq] uses for sift-up): child boxes
   move up a slot and the box is written exactly once, at its final
   slot, instead of re-boxing on every swap. *)
let sift_down q i0 =
  let boxed = q.heap.(i0) in
  let e = match boxed with Some e -> e | None -> assert false in
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref (-1) and small_e = ref e in
    (if l < q.size then
       let le = get q l in
       if before le !small_e then begin
         smallest := l;
         small_e := le
       end);
    (if r < q.size then
       let re = get q r in
       if before re !small_e then begin
         smallest := r;
         small_e := re
       end);
    if !smallest >= 0 then begin
      q.heap.(!i) <- q.heap.(!smallest);
      i := !smallest
    end
    else continue := false
  done;
  q.heap.(!i) <- boxed

let remove_root q =
  q.size <- q.size - 1;
  let boxed = q.heap.(q.size) in
  q.heap.(q.size) <- None;
  if q.size > 0 then begin
    q.heap.(0) <- boxed;
    sift_down q 0
  end

let iter_ready q ~now ~seq_below ~f =
  let n = ref 0 in
  let continue = ref true in
  while !continue && q.size > 0 do
    let root = get q 0 in
    if root.time > now || root.seq >= seq_below then continue := false
    else begin
      (* Remove before calling [f]: the callback may push, cancel, or
         trigger a compaction without disturbing the drain. *)
      remove_root q;
      incr n;
      f root.seq root.payload
    end
  done;
  !n

let min_time q = if q.size = 0 then Stdlib.max_int else (get q 0).time
let peek_seq q = if q.size = 0 then Stdlib.max_int else (get q 0).seq

let take q =
  let root = get q 0 in
  remove_root q;
  root.payload

let note_dead q = q.dead <- q.dead + 1
let dead_decr q = if q.dead > 0 then q.dead <- q.dead - 1
let dead_count q = q.dead
let compactions q = q.compactions

let compact q ~live =
  let j = ref 0 in
  for i = 0 to q.size - 1 do
    let e = get q i in
    if live e.seq e.payload then begin
      if !j < i then q.heap.(!j) <- q.heap.(i);
      incr j
    end
  done;
  for i = !j to q.size - 1 do
    q.heap.(i) <- None
  done;
  q.size <- !j;
  q.dead <- 0;
  q.compactions <- q.compactions + 1;
  (* Floyd heapify: O(n) rebuild of the heap property over the kept
     entries; (time, seq) ordering on pop is unchanged. *)
  for i = (q.size / 2) - 1 downto 0 do
    sift_down q i
  done
