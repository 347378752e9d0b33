type t = { mutable running : bool }

(* Frames each input keeps queued. *)
let backlog = 8

let saturate ~switch ~rng ~frame_bytes =
  let state = { running = true } in
  let n = Hippi_switch.ports switch in
  let pick_dst src =
    if n > 1 then begin
      let d = Rng.int rng (n - 1) in
      if d >= src then d + 1 else d
    end
    else Rng.int rng n
  in
  let frame () = Bytes.create frame_bytes in
  let top_up src =
    if state.running then
      while Hippi_switch.input_queue_len switch ~port:src < backlog do
        Hippi_switch.submit switch ~src ~dst:(pick_dst src) (frame ())
      done
  in
  (* Refill an input whenever one of its frames is delivered anywhere: we
     approximate by topping everything up on every delivery at any port. *)
  for port = 0 to n - 1 do
    Hippi_switch.attach switch ~port (fun _ ->
        for src = 0 to n - 1 do
          top_up src
        done)
  done;
  for src = 0 to n - 1 do
    top_up src
  done;
  state

let stop t = t.running <- false

let run_measurement ~sim ~switch ~warmup ~window =
  Sim.run ~until:(Simtime.add (Sim.now sim) warmup) sim;
  let busy_before =
    Array.init (Hippi_switch.ports switch) (fun p ->
        Hippi_switch.output_busy_time switch ~port:p)
  in
  let t0 = Sim.now sim in
  Sim.run ~until:(Simtime.add t0 window) sim;
  let elapsed = Simtime.sub (Sim.now sim) t0 in
  if elapsed <= 0 then 0.
  else begin
    let total = ref 0 in
    Array.iteri
      (fun p before ->
        total :=
          !total + Hippi_switch.output_busy_time switch ~port:p - before)
      busy_before;
    float_of_int !total
    /. float_of_int (elapsed * Hippi_switch.ports switch)
  end
