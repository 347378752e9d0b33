(* An entry: a {!Ring} slot refilled in place on every [push]. *)
type 'a entry = { mutable due : Simtime.t; mutable value : 'a }

type 'a t = {
  sim : Sim.t;
  empty : 'a;
  q : 'a entry Ring.t;
  mutable deliver : 'a -> unit;
  timer : Sim.handle;
}

(* The head is due: deliver it, then re-arm at the next head. *)
let arrive l =
  if Ring.length l.q > 0 then begin
    let e = Ring.peek l.q in
    let v = e.value in
    e.value <- l.empty;
    Ring.drop l.q;
    l.deliver v;
    if Ring.length l.q > 0 then Sim.rearm_at l.sim l.timer (Ring.peek l.q).due
  end

let create ~sim ~empty =
  let l =
    { sim; empty; q = Ring.create (fun () -> { due = 0; value = empty });
      deliver = ignore; timer = Sim.timer sim ignore }
  in
  Sim.set_fn l.timer (fun () -> arrive l);
  l

let set_deliver l f = l.deliver <- f

let push l due v =
  let e = Ring.push l.q in
  e.due <- due;
  e.value <- v;
  if not (Sim.armed l.timer) then Sim.rearm_at l.sim l.timer due
