(* A hold: a {!Ring} slot that owns its job record; both are refilled in
   place on every [acquire]. *)
type 'a item = { mutable duration : Simtime.t; job : 'a }

type 'a t = {
  sim : Sim.t;
  q : 'a item Ring.t;
  mutable held : bool;
  mutable cur : 'a item;  (* the current hold while [held] *)
  mutable finished : 'a -> unit;
  mutable busy_total : Simtime.t;
  (* One reusable completion timer: the resource serializes its holds, so
     every hold re-arms the same record. *)
  timer : Sim.handle;
}

let start_next t =
  if Ring.length t.q = 0 then t.held <- false
  else begin
    t.held <- true;
    (* The finished hold's record takes the popped slot. *)
    t.cur <- Ring.pop t.q t.cur;
    Sim.rearm t.sim t.timer t.cur.duration
  end

let complete t =
  if t.held then begin
    t.busy_total <- t.busy_total + t.cur.duration;
    t.finished t.cur.job;
    start_next t
  end

let create ~sim blank =
  let item () = { duration = 0; job = blank () } in
  let t =
    { sim; q = Ring.create item; held = false; cur = item ();
      finished = ignore; busy_total = 0; timer = Sim.timer sim ignore }
  in
  Sim.set_fn t.timer (fun () -> complete t);
  t

let set_finished t f = t.finished <- f

let acquire t duration =
  let it = Ring.push t.q in
  it.duration <- duration;
  if not t.held then start_next t;
  it.job

let busy t = t.held
let busy_time t = t.busy_total
