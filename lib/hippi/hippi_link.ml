let line_rate = 100e6

type side = A | B

(* Each direction is a serializer whose job is the frame on the wire,
   feeding a delay line that delivers it [latency] later to the far
   end's receiver [rx]. *)
type sending = { mutable frame : Bytes.t }

type dir = {
  res : sending Resource.t;
  line : Bytes.t Delay_line.t;
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

(* The serializer put the frame in [s] on the wire; it arrives [latency]
   later. *)
let sent t dir s =
  let frame = s.frame in
  s.frame <- Bytes.empty;
  t.carried <- t.carried + Bytes.length frame;
  Delay_line.push dir.line (Simtime.add (Sim.now t.sim) t.latency) frame

let create ~sim ?(rate = line_rate) ?(latency = Simtime.us 1.) () =
  let mk side =
    {
      res = Resource.create ~sim (fun () -> { frame = Bytes.empty });
      line = Delay_line.create ~sim ~empty:Bytes.empty;
      rx = (fun _ -> invalid_arg ("Hippi_link: no rx on side " ^ side));
    }
  in
  let t =
    {
      sim;
      rate;
      latency;
      a2b = mk "B";
      b2a = mk "A";
      carried = 0;
      corrupted = 0;
      dropped = 0;
    }
  in
  List.iter
    (fun dir ->
      Resource.set_finished dir.res (sent t dir);
      Delay_line.set_deliver dir.line (fun frame -> deliver t dir.rx frame))
    [ t.a2b; t.b2a ];
  t

let set_rx t side f =
  match side with A -> t.b2a.rx <- f | B -> t.a2b.rx <- f

let send t ~from frame =
  let dir = match from with A -> t.a2b | B -> t.b2a in
  let ser =
    Simtime.of_bytes_at_rate ~bytes_per_s:t.rate (Bytes.length frame)
  in
  (Resource.acquire dir.res ser).frame <- frame

let bytes_carried t = t.carried
let frames_corrupted t = t.corrupted
let frames_dropped t = t.dropped

let busy_time t side =
  match side with
  | A -> Resource.busy_time t.a2b.res
  | B -> Resource.busy_time t.b2a.res
