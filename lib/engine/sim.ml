module Tw = Timer_wheel

type handle = Tw.timer

type t = {
  mutable clock : Simtime.t;
  queue : Event_queue.t;
  wheel : Tw.t;
  use_wheel : bool;
  mutable next_seq : int;
  (* One sequence space across both stores: (time, seq) totally orders
     every event, so the merged run loop fires in exactly the order a
     single heap would. *)
  mutable fired_total : int;
}

exception Stuck of string

let register_obs t =
  let g name f = Obs.gauge ~section:"sim" ~name (fun () -> float_of_int (f ())) in
  g "events_fired" (fun () -> t.fired_total);
  g "heap_pending" (fun () -> Event_queue.length t.queue);
  (* The heap no longer compacts; the name stays for the readers that
     look it up. *)
  g "heap_compactions" (fun () -> 0);
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

let create ?(wheel = true) () =
  let t =
    { clock = Simtime.zero; queue = Event_queue.create ();
      wheel = Tw.create (); use_wheel = wheel; next_seq = 0;
      fired_total = 0 }
  in
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
  if not (t.use_wheel && Tw.try_schedule t.wheel ~now:t.clock tm) then
    Event_queue.push t.queue tm

(* Remove [tm] from whichever store holds it (no-op when idle). *)
let disarm t (tm : handle) =
  let w = tm.Tw.where in
  if w <= Tw.w_heap then Event_queue.remove t.queue tm
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
   merging the wheel's ready list with the heap, and return how many
   fired.  [wheel] is false when the wheel holds nothing due at [time]:
   a timer armed meanwhile has seq >= [seq_limit].  Events the callbacks
   schedule get seq >= seq_limit and wait for the next batch, so a batch
   is a snapshot of what was ready when it began. *)
let drain_batch t ~time ~seq_limit ~wheel =
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    let wseq =
      if wheel then Tw.expired_seq t.wheel ~time ~seq_below:seq_limit
      else max_int
    in
    let hseq =
      if Event_queue.min_time t.queue = time then Event_queue.peek_seq t.queue
      else max_int
    in
    let hseq = if hseq < seq_limit then hseq else max_int in
    if wseq = max_int && hseq = max_int then continue := false
    else begin
      incr n;
      if wseq < hseq then fire t (Tw.pop_expired t.wheel)
      else fire t (Event_queue.take t.queue)
    end
  done;
  !n

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
          fired :=
            !fired
            + drain_batch t ~time ~seq_limit:t.next_seq ~wheel:(nw = time)
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
      if nw = time then Tw.expired_seq t.wheel ~time ~seq_below:max_int
      else max_int
    in
    let hseq = if nh = time then Event_queue.peek_seq t.queue else max_int in
    if wseq < hseq then fire t (Tw.pop_expired t.wheel)
    else fire t (Event_queue.take t.queue);
    true
  end
