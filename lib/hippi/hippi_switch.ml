type mac = Fifo | Logical_channels

type frame = { dst : int; payload : Bytes.t }

type input = {
  (* FIFO mode uses [fifo]; logical-channel mode uses [channels] with
     round-robin scanning order [rr]. *)
  fifo : frame Queue.t;
  channels : (int, frame Queue.t) Hashtbl.t;
  mutable rr : int list;  (* destinations in round-robin order *)
  mutable busy : bool;
  mutable queued : int;
}

type t = {
  sim : Sim.t;
  nports : int;
  rate : float;
  latency : Simtime.t;
  discipline : mac;
  inputs : input array;
  out_busy : bool array;
  out_busy_time : Simtime.t array;
  rx : (Bytes.t -> unit) array;
  (* Per-output-port delay line for the crossbar→station latency hop;
     [out_busy] serializes each output. *)
  lines : Bytes.t Delay_line.t array;
}

let create ~sim ~ports ?(rate = Hippi_link.line_rate)
    ?(latency = Simtime.us 1.) discipline =
  if ports <= 0 then invalid_arg "Hippi_switch.create: ports";
  let t =
  {
    sim;
    nports = ports;
    rate;
    latency;
    discipline;
    inputs =
      Array.init ports (fun _ ->
          {
            fifo = Queue.create ();
            channels = Hashtbl.create 8;
            rr = [];
            busy = false;
            queued = 0;
          });
    out_busy = Array.make ports false;
    out_busy_time = Array.make ports 0;
    rx = Array.make ports (fun _ -> ());
    lines =
      Array.init ports (fun _ -> Delay_line.create ~sim ~empty:Bytes.empty);
  }
  in
  Array.iteri
    (fun dst l -> Delay_line.set_deliver l (fun payload -> t.rx.(dst) payload))
    t.lines;
  t

let ports t = t.nports

let attach t ~port f =
  if port < 0 || port >= t.nports then invalid_arg "Hippi_switch.attach: port";
  t.rx.(port) <- f

(* Pick the frame the input would transmit next, honouring the MAC
   discipline.  Returns the frame and a removal thunk without dequeuing, so
   the caller can first check the output port. *)
let candidate t input =
  match t.discipline with
  | Fifo -> (
      match Queue.peek_opt input.fifo with
      | None -> None
      | Some f ->
          if t.out_busy.(f.dst) then None
          else Some (f, fun () -> ignore (Queue.pop input.fifo)))
  | Logical_channels ->
      (* Scan destinations round-robin; take the first head frame whose
         output is free. *)
      let rec scan before = function
        | [] -> None
        | d :: rest -> (
            match Hashtbl.find_opt input.channels d with
            | None -> scan (d :: before) rest
            | Some q -> (
                match Queue.peek_opt q with
                | None -> scan (d :: before) rest
                | Some f ->
                    if t.out_busy.(d) then scan (d :: before) rest
                    else
                      Some
                        ( f,
                          fun () ->
                            ignore (Queue.pop q);
                            (* Move [d] to the back for fairness. *)
                            input.rr <-
                              List.rev_append before rest @ [ d ] )))
      in
      scan [] input.rr

let rec try_start t i =
  let input = t.inputs.(i) in
  if not input.busy then
    match candidate t input with
    | None -> ()
    | Some (f, remove) ->
        remove ();
        input.queued <- input.queued - 1;
        input.busy <- true;
        t.out_busy.(f.dst) <- true;
        let ser =
          Simtime.of_bytes_at_rate ~bytes_per_s:t.rate
            (Bytes.length f.payload)
        in
        ignore
          (Sim.after t.sim ser (fun () ->
               t.out_busy_time.(f.dst) <- t.out_busy_time.(f.dst) + ser;
               input.busy <- false;
               t.out_busy.(f.dst) <- false;
               Delay_line.push t.lines.(f.dst)
                 (Simtime.add (Sim.now t.sim) t.latency)
                 f.payload;
               (* The freed output may unblock any input; the freed input
                  may have more queued. *)
               for j = 0 to t.nports - 1 do
                 try_start t j
               done))

let submit t ~src ~dst payload =
  if src < 0 || src >= t.nports || dst < 0 || dst >= t.nports then
    invalid_arg "Hippi_switch.submit: port out of range";
  let input = t.inputs.(src) in
  (match t.discipline with
  | Fifo -> Queue.push { dst; payload } input.fifo
  | Logical_channels ->
      let q =
        match Hashtbl.find_opt input.channels dst with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add input.channels dst q;
            input.rr <- input.rr @ [ dst ];
            q
      in
      Queue.push { dst; payload } q);
  input.queued <- input.queued + 1;
  try_start t src

let input_queue_len t ~port = t.inputs.(port).queued
let output_busy_time t ~port = t.out_busy_time.(port)
