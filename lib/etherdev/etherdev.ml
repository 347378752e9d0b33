(* A station's receive hook.  It stands apart from the station so the
   medium's jobs and the delay line can hold one without a segment to
   build a blank station from. *)
type port = { mutable rx : Bytes.t -> unit }

type t = { mac_addr : int; port : port; seg : segment }

and segment = {
  sim : Sim.t;
  medium : sending Resource.t;
  rate : float;
  mutable stations : t list;
  (* Propagation delay line: each frame reaches each receiving port
     [latency] after the medium serialized it. *)
  line : (port * Bytes.t) Delay_line.t;
}

(* The medium's job: the frame on the wire and its sender. *)
and sending = { mutable from : port; mutable frame : Bytes.t }

let broadcast = 0xffffffffffff

(* Propagation delay from the end of serialization to each receiver. *)
let latency = Simtime.us 5.
let no_port = { rx = ignore }

(* Queue [frame] for each listed station, in order, that [dst]
   addresses, except the sender. *)
let rec fan_out line ~from ~dst due frame = function
  | [] -> ()
  | st :: rest ->
      if st.port != from && (st.mac_addr = dst || dst = broadcast) then
        Delay_line.push line due (st.port, frame);
      fan_out line ~from ~dst due frame rest

(* The medium carried the frame in [s]: every other station it is
   addressed to receives it [latency] later. *)
let sent seg s =
  let from = s.from and frame = s.frame in
  s.from <- no_port;
  s.frame <- Bytes.empty;
  match Ether_frame.decode frame ~off:0 with
  | Error _ -> ()
  | Ok hdr ->
      fan_out seg.line ~from ~dst:hdr.Ether_frame.dst
        (Simtime.add (Sim.now seg.sim) latency)
        frame seg.stations

let create_segment ~sim ?(rate = 10e6 /. 8.) () =
  let seg =
    {
      sim;
      medium =
        Resource.create ~sim (fun () -> { from = no_port; frame = Bytes.empty });
      rate;
      stations = [];
      line = Delay_line.create ~sim ~empty:(no_port, Bytes.empty);
    }
  in
  Resource.set_finished seg.medium (sent seg);
  Delay_line.set_deliver seg.line (fun (port, frame) -> port.rx frame);
  seg

let attach seg ~mac =
  let t = { mac_addr = mac; port = { rx = (fun _ -> ()) }; seg } in
  seg.stations <- t :: seg.stations;
  t

let mac t = t.mac_addr
let set_rx t f = t.port.rx <- f

let transmit t frame =
  let seg = t.seg in
  let ser =
    Simtime.of_bytes_at_rate ~bytes_per_s:seg.rate (Bytes.length frame)
  in
  let s = Resource.acquire seg.medium ser in
  s.from <- t.port;
  s.frame <- frame
