module Tw = Timer_wheel

type handle = Tw.timer

type t = {
  mutable clock : Simtime.t;
  queue : handle Event_queue.t;
  wheel : Tw.t;
  use_wheel : bool;
  mutable next_seq : int;
  (* One sequence space across both stores: (time, seq) totally orders
     every event, so the merged run loop fires in exactly the order a
     single heap would. *)
  mutable fired_total : int;
  mutable drain : int -> handle -> unit;
      (* [fire_heap t], built once in [create]: the heap-only drain in
         [run] passes it to [Event_queue.iter_ready] without allocating *)
}

exception Stuck of string

(* A heap entry is live iff its payload still claims heap residence
   under the same seq.  Cancel and re-arm both break the claim (re-arm
   assigns a fresh seq), turning the old entry into a skippable
   tombstone without touching the heap. *)
let heap_live seq (tm : handle) = tm.Tw.where = Tw.w_heap && tm.Tw.seq = seq

let register_obs t =
  let g name f = Obs.gauge ~section:"sim" ~name (fun () -> float_of_int (f ())) in
  g "events_fired" (fun () -> t.fired_total);
  g "heap_pending" (fun () -> Event_queue.length t.queue);
  g "heap_dead" (fun () -> Event_queue.dead_count t.queue);
  g "heap_compactions" (fun () -> Event_queue.compactions t.queue);
  g "wheel_pending" (fun () -> Tw.pending t.wheel);
  g "wheel_ready" (fun () -> Tw.ready_len t.wheel);
  g "wheel_scheduled" (fun () -> Tw.scheduled t.wheel);
  g "wheel_fired" (fun () -> Tw.fired t.wheel);
  g "wheel_cancelled" (fun () -> Tw.cancels t.wheel);
  g "wheel_cascades" (fun () -> Tw.cascades t.wheel);
  g "wheel_near_rejects" (fun () -> Tw.near_rejects t.wheel);
  g "wheel_far_rejects" (fun () -> Tw.far_rejects t.wheel);
  Obs.table ~section:"sim" ~name:"wheel_levels" (fun () ->
      let b = Buffer.create 64 in
      Buffer.add_char b '[';
      for l = 0 to Tw.levels - 1 do
        if l > 0 then Buffer.add_char b ',';
        Buffer.add_string b (string_of_int (Tw.level_count t.wheel l))
      done;
      Buffer.add_char b ']';
      Buffer.contents b)

let fire t (tm : handle) =
  t.fired_total <- t.fired_total + 1;
  tm.Tw.fn ()

(* Heap pops carry the entry's seq so stale entries (cancelled or
   re-armed while heap-resident) are recognized and skipped. *)
let fire_heap t seq (tm : handle) =
  if heap_live seq tm then begin
    tm.Tw.where <- Tw.w_none;
    fire t tm
  end
  else Event_queue.dead_decr t.queue

let no_drain _ _ = ()

let create ?(wheel = true) () =
  let t =
    { clock = Simtime.zero; queue = Event_queue.create ();
      wheel = Tw.create (); use_wheel = wheel; next_seq = 0;
      fired_total = 0; drain = no_drain }
  in
  t.drain <- (fun seq tm -> fire_heap t seq tm);
  register_obs t;
  t

let now t = t.clock

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* Arm [tm] (deadline/seq set here): wheel if it will take it, heap
   otherwise. *)
let schedule t (tm : handle) time =
  tm.Tw.deadline <- time;
  tm.Tw.seq <- fresh_seq t;
  if not (t.use_wheel && Tw.try_schedule t.wheel ~now:t.clock tm) then begin
    tm.Tw.where <- Tw.w_heap;
    Event_queue.push_seq t.queue ~time ~seq:tm.Tw.seq tm
  end

let maybe_compact t =
  let q = t.queue in
  let len = Event_queue.length q in
  if len > 32 && 2 * Event_queue.dead_count q > len then
    Event_queue.compact q ~live:heap_live

(* Remove [tm] from whichever store holds it (no-op when idle). *)
let disarm t (tm : handle) =
  let w = tm.Tw.where in
  if w = Tw.w_heap then begin
    tm.Tw.where <- Tw.w_none;
    Event_queue.note_dead t.queue;
    maybe_compact t
  end
  else if w <> Tw.w_none then Tw.cancel t.wheel tm

let past_error ~op t time =
  invalid_arg
    (Format.asprintf "%s: time %a is in the past (now %a)" op Simtime.pp time
       Simtime.pp t.clock)

let after t delay fn =
  let time = Simtime.add t.clock delay in
  if time < t.clock then past_error ~op:"Sim.after" t time;
  let tm = Tw.make ~fn in
  schedule t tm time;
  tm

let timer (_ : t) fn = Tw.make ~fn
let set_fn (tm : handle) fn = Tw.set_fn tm fn

let rearm_at t (tm : handle) time =
  if time < t.clock then past_error ~op:"Sim.rearm_at" t time;
  disarm t tm;
  schedule t tm time

let rearm t (tm : handle) delay = rearm_at t tm (Simtime.add t.clock delay)
let stop t (tm : handle) = disarm t tm
let armed (tm : handle) = tm.Tw.where <> Tw.w_none

let periodic t ~every fn =
  let tm = Tw.make ~fn:ignore in
  (* Re-arm before running [fn] so a [stop] from inside the handler
     sticks instead of being overwritten by the self-re-arm. *)
  Tw.set_fn tm (fun () ->
      rearm t tm every;
      fn ());
  rearm t tm every;
  tm

let pending t = Event_queue.length t.queue + Tw.pending t.wheel

let wheel_work t =
  let w = t.wheel in
  Tw.slot_visits w + Tw.cascades w + Tw.near_rejects w + Tw.far_rejects w

let events_fired t = t.fired_total

let wheel_next t = if t.use_wheel then Tw.next_deadline t.wheel else max_int

let heap_next t = Event_queue.min_time t.queue

(* Fire every event at [time] with seq < [seq_limit], lowest seq first,
   merging the wheel's ready list with the heap.  Events the callbacks
   schedule get seq >= seq_limit and wait for the next batch, so a batch
   is a snapshot of what was ready when it began. *)
let drain_batch t ~time ~seq_limit ~fired =
  let continue = ref true in
  while !continue do
    let wseq =
      if t.use_wheel then Tw.expired_seq t.wheel ~time ~seq_below:seq_limit
      else max_int
    in
    let hseq =
      if Event_queue.min_time t.queue = time then Event_queue.peek_seq t.queue
      else max_int
    in
    let hseq = if hseq < seq_limit then hseq else max_int in
    if wseq = max_int && hseq = max_int then continue := false
    else begin
      incr fired;
      if wseq < hseq then fire t (Tw.pop_expired t.wheel)
      else fire_heap t hseq (Event_queue.take t.queue)
    end
  done

let run ?until ?(max_events = 200_000_000) t =
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    let nw = wheel_next t in
    let nh = heap_next t in
    let time = if nw < nh then nw else nh in
    if time = max_int then continue := false
    else
      match until with
      | Some limit when time > limit ->
          t.clock <- limit;
          continue := false
      | _ ->
          if !fired >= max_events then
            raise
              (Stuck
                 (Printf.sprintf "Sim.run: fired %d events without draining"
                    !fired));
          (* Drain the whole same-instant batch in one pass.  Handlers
             that push new events for this same instant are picked up by
             the next loop iteration (their seq numbers are higher, so
             ordering is preserved). *)
          t.clock <- time;
          let seq_limit = t.next_seq in
          if nw > time then begin
            (* Heap-only instant: allocation-free drain. *)
            let n =
              Event_queue.iter_ready t.queue ~now:time ~seq_below:seq_limit
                ~f:t.drain
            in
            fired := !fired + n
          end
          else drain_batch t ~time ~seq_limit ~fired
  done;
  match until with
  | Some limit
    when t.clock < limit && Event_queue.is_empty t.queue
         && Tw.pending t.wheel = 0 ->
      t.clock <- limit
  | _ -> ()

let step t =
  let nw = wheel_next t in
  let nh = heap_next t in
  if nw = max_int && nh = max_int then false
  else begin
    let time = if nw < nh then nw else nh in
    t.clock <- time;
    let wseq =
      if t.use_wheel && nw = time then
        Tw.expired_seq t.wheel ~time ~seq_below:max_int
      else max_int
    in
    let hseq = if nh = time then Event_queue.peek_seq t.queue else max_int in
    if wseq < hseq then fire t (Tw.pop_expired t.wheel)
    else fire_heap t hseq (Event_queue.take t.queue);
    true
  end
