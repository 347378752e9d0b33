module Tw = Timer_wheel

type timer = Tw.timer

type t = {
  mutable heap : timer array;
  (* [heap] is a dense binary min-heap in [0, size); slot 0 is the root,
     and the record in slot [i] has [where = Tw.w_heap - i].  Slots at
     and beyond [size] hold [vacant], so a removed record becomes
     unreachable from the queue at once. *)
  mutable size : int;
}

(* Never pushed, so never written: the filler of every empty slot. *)
let vacant = Tw.make ~fn:ignore

let create () = { heap = [||]; size = 0 }

let is_empty q = q.size = 0
let length q = q.size

let set q i (tm : timer) =
  q.heap.(i) <- tm;
  tm.Tw.where <- Tw.w_heap - i

(* Walk the hole at [i] up until [tm] fits, then put [tm] there.  Each
   record passed over moves down one slot and learns its new slot. *)
let sift_up q i tm =
  let i = ref i in
  while !i > 0 && Tw.before tm q.heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    set q !i q.heap.(parent);
    i := parent
  done;
  set q !i tm

let sift_down q i tm =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= q.size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < q.size && Tw.before q.heap.(r) q.heap.(l) then r else l
      in
      if Tw.before q.heap.(c) tm then begin
        set q !i q.heap.(c);
        i := c
      end
      else continue := false
    end
  done;
  set q !i tm

let push q tm =
  let cap = Array.length q.heap in
  if q.size = cap then begin
    let nheap = Array.make (Stdlib.max 16 (2 * cap)) vacant in
    Array.blit q.heap 0 nheap 0 q.size;
    q.heap <- nheap
  end;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i tm

(* The last record fills the hole [tm] leaves, moving whichever way its
   key sends it. *)
let remove q (tm : timer) =
  let i = Tw.w_heap - tm.Tw.where in
  let last = q.size - 1 in
  let moved = q.heap.(last) in
  q.heap.(last) <- vacant;
  q.size <- last;
  tm.Tw.where <- Tw.w_none;
  if i < last then
    if i > 0 && Tw.before moved q.heap.((i - 1) / 2) then sift_up q i moved
    else sift_down q i moved

let min_time q = if q.size = 0 then Stdlib.max_int else q.heap.(0).Tw.deadline
let peek_seq q = if q.size = 0 then Stdlib.max_int else q.heap.(0).Tw.seq

let take q =
  let tm = q.heap.(0) in
  remove q tm;
  tm
