(* A hold: a {!Ring} slot, refilled in place on every [acquire]. *)
type item = { mutable duration : Simtime.t; mutable k : unit -> unit }

let nop () = ()
let blank () = { duration = 0; k = nop }

type t = {
  sim : Sim.t;
  name : string;
  q : item Ring.t;
  mutable held : bool;
  mutable cur : item;  (* the current hold while [held] *)
  mutable busy_total : Simtime.t;
  (* One reusable completion timer: the resource serializes its items, so
     every hold re-arms the same record — no per-item closure. *)
  timer : Sim.handle;
}

let name t = t.name

let rec start_next t =
  if Ring.length t.q = 0 then t.held <- false
  else begin
    t.held <- true;
    (* The finished hold's record (continuation dropped) takes the
       popped slot. *)
    t.cur <- Ring.pop t.q t.cur;
    Sim.rearm t.sim t.timer t.cur.duration
  end

and complete t =
  if t.held then begin
    t.busy_total <- t.busy_total + t.cur.duration;
    let k = t.cur.k in
    t.cur.k <- nop;
    k ();
    start_next t
  end

let create ~sim ~name =
  let t =
    { sim; name; q = Ring.create blank; held = false; cur = blank ();
      busy_total = 0; timer = Sim.timer sim ignore }
  in
  Sim.set_fn t.timer (fun () -> complete t);
  t

let acquire t duration k =
  let it = Ring.push t.q in
  it.duration <- duration;
  it.k <- k;
  if not t.held then start_next t

let busy t = t.held
let busy_time t = t.busy_total
