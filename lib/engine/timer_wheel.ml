(* Hierarchical timing wheel.  See the .mli for the design overview.
   Layout: [levels] arrays of [2^slot_bits] sentinel-headed intrusive
   dlists; level l spans ticks of width 2^(l*slot_bits) relative to the
   cursor [now_tick] (a tick is 2^tick_bits ns).  The cursor only moves
   forward; slots strictly below it are empty.  Expiry sorts the slot
   under the cursor into [ready] — exact (deadline, seq) order — and
   the ready head doubles as the next-deadline cache. *)

type timer = {
  mutable fn : unit -> unit;
  mutable deadline : Simtime.t;
  mutable seq : int;
  mutable where : int;
  mutable prev : timer;
  mutable next : timer;
}

let w_none = -1
let w_heap = -2
let w_ready = 255

let no_fn () = ()

(* Built once and then closed on itself: [let rec tm = { ...; prev = tm }]
   would allocate a dummy block as well and copy the record into it,
   twice the words.  The placeholder links are overwritten before
   anything can read them. *)
let make ~fn =
  let tm =
    { fn; deadline = 0; seq = 0; where = w_none; prev = Obj.magic 0;
      next = Obj.magic 0 }
  in
  tm.prev <- tm;
  tm.next <- tm;
  tm

let sentinel () = make ~fn:no_fn

(* Level-0 ticks are 2^9 ns; 2^8 slots per level; three levels give a
   horizon of 2^(9 + 3*8) ns, about 8.6 s. *)
let tick_bits = 9
let slot_bits = 8
let levels = 3
let mask = (1 lsl slot_bits) - 1
let horizon_ticks = 1 lsl (levels * slot_bits)

type t = {
  slots : timer array array;        (* levels x 2^slot_bits sentinels *)
  counts : int array;               (* live timers per level *)
  ready : timer;                    (* sorted expired list, sentinel *)
  mutable n_ready : int;
  mutable n_pending : int;          (* slots + ready *)
  mutable now_tick : int;           (* cursor; slots < now_tick empty *)
  mutable n_scheduled : int;
  mutable n_fired : int;
  mutable n_cancels : int;
  mutable n_cascades : int;
  mutable n_visits : int;
  mutable n_near : int;
  mutable n_far : int;
}

let create () =
  { slots =
      Array.init levels (fun _ -> Array.init (mask + 1) (fun _ -> sentinel ()));
    counts = Array.make levels 0;
    ready = sentinel (); n_ready = 0; n_pending = 0; now_tick = 0;
    n_scheduled = 0; n_fired = 0; n_cancels = 0; n_cascades = 0;
    n_visits = 0; n_near = 0; n_far = 0 }

let set_fn tm fn = tm.fn <- fn

let unlink tm =
  tm.prev.next <- tm.next;
  tm.next.prev <- tm.prev;
  tm.prev <- tm;
  tm.next <- tm

let insert_after p tm =
  tm.prev <- p;
  tm.next <- p.next;
  p.next.prev <- tm;
  p.next <- tm

(* Place [tm] into the slot its deadline selects, given the current
   cursor.  Pre: 0 <= rel < horizon_ticks.  Does not touch n_pending. *)
let rec level_for rel l =
  if rel asr ((l + 1) * slot_bits) = 0 then l else level_for rel (l + 1)

let place t tm =
  let dtick = tm.deadline asr tick_bits in
  let rel = dtick - t.now_tick in
  let level = level_for rel 0 in
  let idx = (dtick asr (level * slot_bits)) land mask in
  let s = t.slots.(level).(idx) in
  insert_after s.prev tm;
  t.counts.(level) <- t.counts.(level) + 1;
  tm.where <- level

let try_schedule t ~now tm =
  if t.n_pending = 0 then t.now_tick <- now asr tick_bits;
  let rel = (tm.deadline asr tick_bits) - t.now_tick in
  if rel < 0 then begin
    (* Inside the swept window (e.g. a zero-delay event, or a deadline
       in the slot already sorted into [ready]). *)
    t.n_near <- t.n_near + 1;
    false
  end else if rel >= horizon_ticks then begin
    t.n_far <- t.n_far + 1;
    false
  end else begin
    place t tm;
    t.n_pending <- t.n_pending + 1;
    t.n_scheduled <- t.n_scheduled + 1;
    true
  end

let cancel t tm =
  let w = tm.where in
  if w = w_ready then begin
    unlink tm;
    tm.where <- w_none;
    t.n_ready <- t.n_ready - 1;
    t.n_pending <- t.n_pending - 1;
    t.n_cancels <- t.n_cancels + 1
  end else if w >= 0 && w < levels then begin
    unlink tm;
    tm.where <- w_none;
    t.counts.(w) <- t.counts.(w) - 1;
    t.n_pending <- t.n_pending - 1;
    t.n_cancels <- t.n_cancels + 1
  end

(* Redistribute the level-[l] slot under the cursor into finer levels.
   Every timer there has rel < 2^(l*slot_bits), so [place] puts it at a
   strictly lower level (or, when rel = 0, level 0 at the cursor). *)
let cascade t l =
  let idx = (t.now_tick asr (l * slot_bits)) land mask in
  let s = t.slots.(l).(idx) in
  while s.next != s do
    let tm = s.next in
    unlink tm;
    t.counts.(l) <- t.counts.(l) - 1;
    t.n_cascades <- t.n_cascades + 1;
    place t tm
  done

let before a b =
  a.deadline < b.deadline || (a.deadline = b.deadline && a.seq < b.seq)

(* Sort the level-0 slot under the cursor into [ready] in place: each
   timer goes in after the last ready timer that precedes it, searching
   from the ready tail.  A slot filed in deadline order costs one
   comparison per timer, and nothing is allocated.  The worst case is
   quadratic: k timers filed in reverse order cost k(k-1)/2 steps back.
   Traffic keeps slots short and nearly sorted: the server run collects
   16.8 M timers with at most 6 in a slot and 9 steps back in one
   collect (230 K steps back in all), the soak run at most 3 in a
   slot, and the paper targets at most 31, with 6 steps back. *)
let collect t =
  let s = t.slots.(0).(t.now_tick land mask) in
  let ready = t.ready in
  while s.next != s do
    let tm = s.next in
    unlink tm;
    t.counts.(0) <- t.counts.(0) - 1;
    tm.where <- w_ready;
    let p = ref ready.prev in
    while !p != ready && before tm !p do
      p := !p.prev
    done;
    insert_after !p tm;
    t.n_ready <- t.n_ready + 1
  done

(* Advance the cursor until [ready] is non-empty.  Pre: n_pending >
   n_ready = 0, so some slot is occupied and the loop terminates.
   Cascade checks are idempotent (a cascaded slot is empty), so it is
   safe to re-test boundaries on every iteration. *)
let advance t =
  while t.n_ready = 0 do
    t.n_visits <- t.n_visits + 1;
    for l = levels - 1 downto 1 do
      if t.now_tick land ((1 lsl (l * slot_bits)) - 1) = 0 then cascade t l
    done;
    if t.counts.(0) > 0 then begin
      let s = t.slots.(0).(t.now_tick land mask) in
      if s.next != s then begin
        collect t;
        (* The collected slot is consumed: deadlines at this tick now
           arrive via the near-reject heap path, never behind the sorted
           ready batch. *)
        t.now_tick <- t.now_tick + 1
      end
      else t.now_tick <- t.now_tick + 1
    end
    else begin
      (* Level 0 empty: jump to the next boundary of the lowest occupied
         level.  One boundary at a time, so no cascade is skipped. *)
      let l = ref 1 in
      while !l < levels - 1 && t.counts.(!l) = 0 do incr l done;
      let span = (1 lsl (!l * slot_bits)) - 1 in
      t.now_tick <- (t.now_tick lor span) + 1
    end
  done

let next_deadline t =
  if t.n_ready > 0 then t.ready.next.deadline
  else if t.n_pending = 0 then max_int
  else begin
    advance t;
    t.ready.next.deadline
  end

let expired_seq t ~time ~seq_below =
  if t.n_ready = 0 then max_int
  else begin
    let head = t.ready.next in
    if head.deadline = time && head.seq < seq_below then head.seq
    else max_int
  end

let pop_expired t =
  let tm = t.ready.next in
  unlink tm;
  tm.where <- w_none;
  t.n_ready <- t.n_ready - 1;
  t.n_pending <- t.n_pending - 1;
  t.n_fired <- t.n_fired + 1;
  tm

let pending t = t.n_pending
let ready_len t = t.n_ready
let level_count t l = t.counts.(l)
let scheduled t = t.n_scheduled
let fired t = t.n_fired
let cancels t = t.n_cancels
let cascades t = t.n_cascades
let slot_visits t = t.n_visits
let near_rejects t = t.n_near
let far_rejects t = t.n_far
