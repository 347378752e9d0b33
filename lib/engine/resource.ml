type item = { duration : Simtime.t; k : unit -> unit }

type t = {
  sim : Sim.t;
  name : string;
  q : item Queue.t;
  mutable held : bool;
  mutable current : item option;
  mutable busy_total : Simtime.t;
  (* One reusable completion timer: the resource serializes its items, so
     every hold re-arms the same record — no per-item closure. *)
  timer : Sim.handle;
}

let name t = t.name

let rec start_next t =
  if Queue.is_empty t.q then begin
    t.held <- false;
    t.current <- None
  end
  else begin
    t.held <- true;
    let item = Queue.pop t.q in
    t.current <- Some item;
    Sim.rearm t.sim t.timer item.duration
  end

and complete t =
  match t.current with
  | None -> ()
  | Some item ->
      t.busy_total <- t.busy_total + item.duration;
      item.k ();
      start_next t

let create ~sim ~name =
  let t =
    { sim; name; q = Queue.create (); held = false; current = None;
      busy_total = 0; timer = Sim.timer sim ignore }
  in
  Sim.set_fn t.timer (fun () -> complete t);
  t

let acquire t duration k =
  Queue.push { duration; k } t.q;
  if not t.held then start_next t

let busy t = t.held
let busy_time t = t.busy_total
