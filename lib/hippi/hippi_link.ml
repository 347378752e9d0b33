let line_rate = 100e6

type side = A | B

(* Each direction is a serialization resource feeding a delay line, and
   both hold their frames in {!Ring}s of preallocated slots.  [serq]
   holds the frames queued on [res], in step with it: [send] is the
   resource's only producer and it serves FIFO, so the head of [serq] is
   always the frame whose serialization just completed, and one
   preallocated continuation ([serialized]) serves every frame.  Frames
   then enter [pipe] stamped with their arrival time, [latency] later;
   arrival times are non-decreasing (the resource serializes), so the
   head of [pipe] is always the next arrival and one reusable timer per
   direction drains it.  [rx] is the far end's receiver. *)
type slot = { mutable due : Simtime.t; mutable frame : Bytes.t }

type dir = {
  res : Resource.t;
  serq : slot Ring.t;
  pipe : slot Ring.t;
  timer : Sim.handle;
  mutable serialized : unit -> unit;
  mutable rx : Bytes.t -> unit;
}

type t = {
  sim : Sim.t;
  rate : float;
  latency : Simtime.t;
  a2b : dir;
  b2a : dir;
  mutable carried : int;
  mutable corrupted : int;
  mutable dropped : int;
}

let blank_slot () = { due = Simtime.zero; frame = Bytes.empty }

(* Remove the head slot of [r] and return its frame. *)
let take r =
  let s = Ring.peek r in
  let frame = s.frame in
  s.frame <- Bytes.empty;
  Ring.drop r;
  frame

(* Wire faults happen after serialization, at the instant the frame
   reaches the far end.  A corrupted frame has one byte XORed — the
   receiving engine's checksum (or the host-verified header prefix)
   catches it and TCP retransmission heals it.  A dropped frame never
   arrives; its buffer is recycled so the soak leak check stays honest
   about what the wire ate. *)
let deliver t rx frame =
  if Fault.fire "wire.drop" then begin
    t.dropped <- t.dropped + 1;
    Bufpool.put Bufpool.shared frame
  end
  else begin
    (match Fault.fire_at "wire.corrupt" ~bound:(Bytes.length frame) with
    | Some i ->
        t.corrupted <- t.corrupted + 1;
        Bytes.set frame i
          (Char.chr (Char.code (Bytes.get frame i) lxor 0x40))
    | None -> ());
    rx frame
  end

let arrive t dir =
  if Ring.length dir.pipe > 0 then begin
    deliver t dir.rx (take dir.pipe);
    if Ring.length dir.pipe > 0 then
      Sim.rearm_at t.sim dir.timer (Ring.peek dir.pipe).due
  end

let serialized t dir =
  let frame = take dir.serq in
  t.carried <- t.carried + Bytes.length frame;
  let due = Simtime.add (Sim.now t.sim) t.latency in
  let s = Ring.push dir.pipe in
  s.due <- due;
  s.frame <- frame;
  if not (Sim.armed dir.timer) then Sim.rearm_at t.sim dir.timer due

let create ~sim ?(rate = line_rate) ?(latency = Simtime.us 1.) () =
  let mk name side =
    {
      res = Resource.create ~sim ~name;
      serq = Ring.create blank_slot;
      pipe = Ring.create blank_slot;
      timer = Sim.timer sim ignore;
      serialized = ignore;
      rx = (fun _ -> invalid_arg ("Hippi_link: no rx on side " ^ side));
    }
  in
  let t =
    {
      sim;
      rate;
      latency;
      a2b = mk "link.a2b" "B";
      b2a = mk "link.b2a" "A";
      carried = 0;
      corrupted = 0;
      dropped = 0;
    }
  in
  List.iter
    (fun dir ->
      Sim.set_fn dir.timer (fun () -> arrive t dir);
      dir.serialized <- (fun () -> serialized t dir))
    [ t.a2b; t.b2a ];
  t

let set_rx t side f =
  match side with A -> t.b2a.rx <- f | B -> t.a2b.rx <- f

let send t ~from frame =
  let dir = match from with A -> t.a2b | B -> t.b2a in
  let ser =
    Simtime.of_bytes_at_rate ~bytes_per_s:t.rate (Bytes.length frame)
  in
  (Ring.push dir.serq).frame <- frame;
  Resource.acquire dir.res ser dir.serialized

let bytes_carried t = t.carried
let frames_corrupted t = t.corrupted
let frames_dropped t = t.dropped

let busy_time t side =
  match side with
  | A -> Resource.busy_time t.a2b.res
  | B -> Resource.busy_time t.b2a.res
