type result = {
  sender : Measurement.t;
  receiver : Measurement.t;
  verified : bool;
  retransmits : int;
  write_latency_p50 : Simtime.t;
  write_latency_p99 : Simtime.t;
  sender_tcp : Tcp.pcb_stats;
  receiver_tcp : Tcp.pcb_stats;
  sender_socket : Socket.stats;
  sender_policy : Path_policy.stats option;
}

(* ttcp's own loop overhead per write/read call, charged as user time. *)
let loop_cost = Simtime.us 5.

(* Writes the sender keeps in flight, double-buffer style: see the
   interface. *)
let pipeline_writes = 2

type flow = {
  sa : Socket.t;
  sb : Socket.t;
  a_cpu : Cpu.t;  (* the CPUs of the shards owning the connection *)
  b_cpu : Cpu.t;
  mutable issued : int;  (* bytes handed to writes *)
  mutable completed : int;  (* bytes whose write returned *)
  mutable got : int;
  mutable verified : bool;
  mutable finished : bool;
  mutable t_end : Simtime.t;  (* the receiver's last read *)
}

(* The one flow body.  The sender cycles [srcs], identically filled,
   through Socket.write, reusing each buffer only after its own write
   returns; the receiver reads into [dst] and checks the stream.  Both
   app loops run on the CPU of the shard owning the connection, like
   the syscalls they make. *)
let start_flow ~tb ~sa ~sb ~wsize ~total ~verify ~seed ~write_lat =
  let sim = tb.Testbed.sim in
  let a = tb.Testbed.a.Testbed.stack.Netstack.host in
  let b = tb.Testbed.b.Testbed.stack.Netstack.host in
  let a_shard = Tcp.pcb_shard (Socket.pcb sa) in
  let b_shard = Tcp.pcb_shard (Socket.pcb sb) in
  let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"ttcp" in
  let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"ttcp" in
  let srcs =
    Array.init
      (min pipeline_writes (max 1 (total / wsize)))
      (fun _ ->
        let r = Addr_space.alloc a_space wsize in
        Region.fill_pattern r ~seed;
        r)
  in
  let dst = Addr_space.alloc b_space wsize in
  let f =
    {
      sa;
      sb;
      a_cpu = (Host.shards a).(a_shard).Shard.cpu;
      b_cpu = (Host.shards b).(b_shard).Shard.cpu;
      issued = 0;
      completed = 0;
      got = 0;
      verified = true;
      finished = false;
      t_end = Simtime.zero;
    }
  in
  let finish () =
    f.finished <- true;
    f.t_end <- Sim.now sim
  in
  let rec send buf =
    if f.issued >= total then begin
      (* Every write is issued: the last writer to complete closes. *)
      if f.completed >= total then Socket.close sa
    end
    else begin
      f.issued <- f.issued + wsize;
      Host.in_proc_on a ~shard:a_shard ~proc:"ttcp" ~mode:Cpu.User loop_cost
        (fun () ->
          let t_write = Sim.now sim in
          Socket.write sa srcs.(buf) (fun () ->
              Obs.Histogram.observe write_lat
                (Simtime.sub (Sim.now sim) t_write);
              f.completed <- f.completed + wsize;
              send buf))
    end
  in
  (* The stream is the source pattern repeated, so [len] bytes read into
     [dst] at [doff] must equal the pattern from [soff], wrapping at the
     buffer boundary: exact although plain reads return at segment
     boundaries rather than in wsize units. *)
  let rec matches doff soff len =
    len = 0
    ||
    let piece = min len (wsize - soff) in
    Region.equal_contents
      (Region.sub dst ~off:doff ~len:piece)
      (Region.sub srcs.(0) ~off:soff ~len:piece)
    && matches (doff + piece) ((soff + piece) mod wsize) (len - piece)
  in
  let rec recv () =
    if f.got >= total then finish ()
    else
      Host.in_proc_on b ~shard:b_shard ~proc:"ttcp" ~mode:Cpu.User loop_cost
        (fun () ->
          Socket.read sb dst (fun n ->
              if n = 0 then begin
                (* Premature EOF: the flow ends short and unverified. *)
                f.verified <- false;
                finish ()
              end
              else begin
                if verify && not (matches 0 (f.got mod wsize) n) then
                  f.verified <- false;
                f.got <- f.got + n;
                recv ()
              end))
  in
  for buf = 0 to Array.length srcs - 1 do
    send buf
  done;
  recv ();
  f

(* Runs [flows] flows on ports [base_port ..] to completion.  The
   measurement window (every shard's CPU books reset, util soakers
   started) opens when the first connection is up, at the returned
   time.  Flow [i]'s pattern seed is [1234 + i]. *)
let run_flows ~tb ~flows ~wsize ~total ~paths ~verify ~base_port ~write_lat =
  if total mod wsize <> 0 then
    invalid_arg "Ttcp: total must be a multiple of wsize";
  if flows < 1 then invalid_arg "Ttcp: flows must be >= 1";
  let sim = tb.Testbed.sim in
  let started = Array.make flows None in
  let t0 = ref None in
  let open_window (n : Testbed.node) =
    Array.iter
      (fun sh ->
        Cpu.reset_accounting sh.Shard.cpu;
        Cpu.set_idle_proc sh.Shard.cpu "util")
      (Host.shards n.Testbed.stack.Netstack.host)
  in
  for i = 0 to flows - 1 do
    Testbed.establish_stream tb ~port:(base_port + i) ~a_paths:paths
      ~b_paths:paths (fun sa sb ->
        if !t0 = None then begin
          open_window tb.Testbed.a;
          open_window tb.Testbed.b;
          t0 := Some (Sim.now sim)
        end;
        started.(i) <-
          Some
            (start_flow ~tb ~sa ~sb ~wsize ~total ~verify ~seed:(1234 + i)
               ~write_lat))
  done;
  Sim.run ~until:(Simtime.s 600.) sim;
  let completed =
    Array.fold_left
      (fun n -> function Some { finished = true; _ } -> n + 1 | _ -> n)
      0 started
  in
  if completed < flows then
    failwith (Printf.sprintf "Ttcp: %d of %d flows completed" completed flows);
  (Option.get !t0, Array.map Option.get started)

let run ~tb ~wsize ~total ?(force_uio = true) ?(adaptive = false)
    ?(verify = true) ?(port = 5001) () =
  let paths =
    if adaptive then
      { Socket.default_paths with Socket.force_uio = false; adaptive = true }
    else { Socket.default_paths with Socket.force_uio }
  in
  let write_lat = Obs.Histogram.create () in
  let t0, fs =
    run_flows ~tb ~flows:1 ~wsize ~total ~paths ~verify ~base_port:port
      ~write_lat
  in
  let f = fs.(0) in
  let elapsed = Simtime.sub f.t_end t0 in
  {
    sender = Measurement.of_cpu ~cpu:f.a_cpu ~elapsed ~bytes:f.got;
    receiver = Measurement.of_cpu ~cpu:f.b_cpu ~elapsed ~bytes:f.got;
    verified = f.verified;
    retransmits = (Tcp.pcb_stats (Socket.pcb f.sa)).Tcp.retransmits;
    sender_tcp = Tcp.pcb_stats (Socket.pcb f.sa);
    receiver_tcp = Tcp.pcb_stats (Socket.pcb f.sb);
    write_latency_p50 = Measurement.latency_quantile write_lat 0.5;
    write_latency_p99 = Measurement.latency_quantile write_lat 0.99;
    sender_socket = Socket.stats f.sa;
    sender_policy = Option.map Path_policy.stats (Socket.path_policy f.sa);
  }

(* ---------- parallel flows (RSS scaling experiment) ---------- *)

type parallel_result = {
  p_mbit : float;  (* aggregate over all flows *)
  p_verified : bool;
}

let run_parallel ~tb ~flows ~wsize ~total ?(verify = true) () =
  let paths = { Socket.default_paths with Socket.force_uio = true } in
  let t0, fs =
    run_flows ~tb ~flows ~wsize ~total ~paths ~verify ~base_port:5001
      ~write_lat:(Obs.Histogram.create ())
  in
  let elapsed =
    Simtime.sub (Array.fold_left (fun t f -> max t f.t_end) t0 fs) t0
  in
  {
    p_mbit =
      Simtime.rate_mbit ~bytes:(Array.fold_left (fun n f -> n + f.got) 0 fs)
        elapsed;
    p_verified = Array.for_all (fun f -> f.verified) fs;
  }
