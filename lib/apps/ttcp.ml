type result = {
  sender : Measurement.t;
  receiver : Measurement.t;
  wsize : int;
  total : int;
  verified : bool;
  retransmits : int;
  write_latency_p50 : Simtime.t;
  write_latency_p99 : Simtime.t;
  sender_tcp : Tcp.pcb_stats;
  receiver_tcp : Tcp.pcb_stats;
  sender_socket : Socket.stats;
  receiver_socket : Socket.stats;
  sender_policy : Path_policy.stats option;
}

(* ttcp's own loop overhead per write/read call, charged as user time. *)
let loop_cost_us = 5.

let run ~tb ~wsize ~total ?(force_uio = true) ?(adaptive = false)
    ?(verify = true) ?(port = 5001) ?(pipeline_writes = 2) () =
  if total mod wsize <> 0 then
    invalid_arg "Ttcp.run: total must be a multiple of wsize";
  if pipeline_writes < 1 then
    invalid_arg "Ttcp.run: pipeline_writes must be at least 1";
  let paths =
    if adaptive then
      { Socket.default_paths with Socket.force_uio = false; adaptive = true }
    else { Socket.default_paths with Socket.force_uio }
  in
  let sim = tb.Testbed.sim in
  let a_host = tb.Testbed.a.Testbed.stack.Netstack.host in
  let b_host = tb.Testbed.b.Testbed.stack.Netstack.host in
  let finished = ref None in
  let all_ok = ref true in
  let write_lat = Obs.Histogram.create () in
  Testbed.establish_stream tb ~port ~a_paths:paths ~b_paths:paths
    (fun sa sb ->
      (* Measurement window starts once the connection is up: reset the
         books (every shard's CPU) and start the util soakers. *)
      Array.iter
        (fun sh ->
          Cpu.reset_accounting sh.Shard.cpu;
          Cpu.set_idle_proc sh.Shard.cpu "util")
        (Host.shards a_host);
      Array.iter
        (fun sh ->
          Cpu.reset_accounting sh.Shard.cpu;
          Cpu.set_idle_proc sh.Shard.cpu "util")
        (Host.shards b_host);
      (* The app loop runs on the CPU of the shard owning the
         connection, like the syscalls it makes. *)
      let a_shard = Tcp.pcb_shard (Socket.pcb sa) in
      let b_shard = Tcp.pcb_shard (Socket.pcb sb) in
      let t0 = Sim.now sim in
      let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"ttcp" in
      let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"ttcp" in
      (* Classic double-buffered sender: [pipeline_writes] identical
         source buffers cycle through Socket.write, so while one write
         sits in the kernel waiting for its bytes to drain (UIO copy
         semantics block until the adaptor's SDMA has pulled them) the
         next buffer's write is already appended — the socket send
         queue never runs dry between writes and the host-to-adaptor
         DMA engine stays busy across write boundaries.  Every buffer
         carries the same pattern, so the receiver's verification
         against [srcs.(0)] is unaffected by which buffer produced a
         byte. *)
      let nbuf = min pipeline_writes (max 1 (total / wsize)) in
      let srcs =
        Array.init nbuf (fun _ ->
            let r = Addr_space.alloc a_space wsize in
            Region.fill_pattern r ~seed:1234;
            r)
      in
      let src = srcs.(0) in
      let dst = Addr_space.alloc b_space wsize in
      let issued = ref 0 in
      let completed = ref 0 in
      let rec send_loop buf =
        if !issued >= total then begin
          if !completed >= total then Socket.close sa
          (* else: a sibling writer is still draining; the last one to
             complete closes. *)
        end
        else begin
          issued := !issued + wsize;
          Host.in_proc_on a_host ~shard:a_shard ~proc:"ttcp" ~mode:Cpu.User
            (Simtime.us loop_cost_us) (fun () ->
              let t_write = Sim.now sim in
              Socket.write sa srcs.(buf) (fun () ->
                  Obs.Histogram.observe write_lat
                    (Simtime.sub (Sim.now sim) t_write);
                  completed := !completed + wsize;
                  send_loop buf))
        end
      in
      (* The stream is the source pattern repeated, so a read of [n] bytes
         that began at stream offset [got] must equal the pattern starting
         at [got mod wsize], wrapping at the buffer boundary.  Checking
         piecewise views keeps verification exact even though plain reads
         return at segment boundaries rather than in wsize units. *)
      let verify_stream ~stream_off ~len =
        let rec check doff soff remaining =
          remaining = 0
          ||
          let piece = min remaining (wsize - soff) in
          Region.equal_contents
            (Region.sub dst ~off:doff ~len:piece)
            (Region.sub src ~off:soff ~len:piece)
          && check (doff + piece) ((soff + piece) mod wsize) (remaining - piece)
        in
        check 0 (stream_off mod wsize) len
      in
      let rec recv_loop got =
        if got >= total then begin
          let t1 = Sim.now sim in
          finished := Some (t0, t1, got, sa, sb)
        end
        else
          Host.in_proc_on b_host ~shard:b_shard ~proc:"ttcp" ~mode:Cpu.User
            (Simtime.us loop_cost_us) (fun () ->
              Socket.read sb dst (fun n ->
                  if n = 0 then begin
                    all_ok := false;
                    let t1 = Sim.now sim in
                    finished := Some (t0, t1, got + n, sa, sb)
                  end
                  else begin
                    if verify && not (verify_stream ~stream_off:got ~len:n)
                    then all_ok := false;
                    recv_loop (got + n)
                  end))
      in
      for buf = 0 to nbuf - 1 do
        send_loop buf
      done;
      recv_loop 0);
  Sim.run ~until:(Simtime.s 600.) sim;
  match !finished with
  | None -> failwith "Ttcp.run: transfer did not complete"
  | Some (t0, t1, got, sa, sb) ->
      let elapsed = Simtime.sub t1 t0 in
      {
        sender =
          Measurement.of_cpu ~cpu:a_host.Host.cpu ~elapsed ~bytes:got;
        receiver =
          Measurement.of_cpu ~cpu:b_host.Host.cpu ~elapsed ~bytes:got;
        wsize;
        total;
        verified = !all_ok;
        retransmits = (Tcp.pcb_stats (Socket.pcb sa)).Tcp.retransmits;
        sender_tcp = Tcp.pcb_stats (Socket.pcb sa);
        receiver_tcp = Tcp.pcb_stats (Socket.pcb sb);
        write_latency_p50 = Measurement.latency_quantile write_lat 0.5;
        write_latency_p99 = Measurement.latency_quantile write_lat 0.99;
        sender_socket = Socket.stats sa;
        receiver_socket = Socket.stats sb;
        sender_policy =
          Option.map Path_policy.stats (Socket.path_policy sa);
      }

(* ---------- parallel flows (RSS scaling experiment) ---------- *)

type parallel_result = {
  p_flows : int;
  p_total : int;  (* bytes per flow *)
  p_elapsed : Simtime.t;  (* first connection up -> last flow done *)
  p_mbit : float;  (* aggregate over all flows *)
  p_verified : bool;
  p_flow_mbit : float array;
}

let run_parallel ~tb ~flows ~wsize ~total ?(force_uio = true)
    ?(verify = true) ?(base_port = 5001) ?(pipeline_writes = 2) () =
  if total mod wsize <> 0 then
    invalid_arg "Ttcp.run_parallel: total must be a multiple of wsize";
  if flows < 1 then invalid_arg "Ttcp.run_parallel: flows must be >= 1";
  let paths = { Socket.default_paths with Socket.force_uio } in
  let sim = tb.Testbed.sim in
  let a_host = tb.Testbed.a.Testbed.stack.Netstack.host in
  let b_host = tb.Testbed.b.Testbed.stack.Netstack.host in
  let started = ref 0 in
  let done_flows = ref 0 in
  let all_ok = ref true in
  let t0 = ref Simtime.zero in
  let t_last = ref Simtime.zero in
  let flow_elapsed = Array.make flows Simtime.zero in
  let launch i =
    Testbed.establish_stream tb ~port:(base_port + i) ~a_paths:paths
      ~b_paths:paths (fun sa sb ->
        incr started;
        if !started = 1 then begin
          (* Measurement window opens with the first connection. *)
          Array.iter
            (fun sh ->
              Cpu.reset_accounting sh.Shard.cpu;
              Cpu.set_idle_proc sh.Shard.cpu "util")
            (Host.shards a_host);
          Array.iter
            (fun sh ->
              Cpu.reset_accounting sh.Shard.cpu;
              Cpu.set_idle_proc sh.Shard.cpu "util")
            (Host.shards b_host);
          t0 := Sim.now sim
        end;
        let t_start = Sim.now sim in
        let a_shard = Tcp.pcb_shard (Socket.pcb sa) in
        let b_shard = Tcp.pcb_shard (Socket.pcb sb) in
        let a_space =
          Netstack.make_space tb.Testbed.a.Testbed.stack
            ~name:(Printf.sprintf "ttcp%d" i)
        in
        let b_space =
          Netstack.make_space tb.Testbed.b.Testbed.stack
            ~name:(Printf.sprintf "ttcp%d" i)
        in
        let nbuf = min pipeline_writes (max 1 (total / wsize)) in
        (* Per-flow seed: cross-flow misdelivery cannot verify. *)
        let srcs =
          Array.init nbuf (fun _ ->
              let r = Addr_space.alloc a_space wsize in
              Region.fill_pattern r ~seed:(1234 + i);
              r)
        in
        let src = srcs.(0) in
        let dst = Addr_space.alloc b_space wsize in
        let issued = ref 0 in
        let completed = ref 0 in
        let rec send_loop buf =
          if !issued >= total then begin
            if !completed >= total then Socket.close sa
          end
          else begin
            issued := !issued + wsize;
            Host.in_proc_on a_host ~shard:a_shard ~proc:"ttcp"
              ~mode:Cpu.User (Simtime.us loop_cost_us) (fun () ->
                Socket.write sa srcs.(buf) (fun () ->
                    completed := !completed + wsize;
                    send_loop buf))
          end
        in
        let verify_stream ~stream_off ~len =
          let rec check doff soff remaining =
            remaining = 0
            ||
            let piece = min remaining (wsize - soff) in
            Region.equal_contents
              (Region.sub dst ~off:doff ~len:piece)
              (Region.sub src ~off:soff ~len:piece)
            && check (doff + piece)
                 ((soff + piece) mod wsize)
                 (remaining - piece)
          in
          check 0 (stream_off mod wsize) len
        in
        let rec recv_loop got =
          if got >= total then begin
            flow_elapsed.(i) <- Simtime.sub (Sim.now sim) t_start;
            t_last := Sim.now sim;
            incr done_flows
          end
          else
            Host.in_proc_on b_host ~shard:b_shard ~proc:"ttcp"
              ~mode:Cpu.User (Simtime.us loop_cost_us) (fun () ->
                Socket.read sb dst (fun n ->
                    if n = 0 then all_ok := false
                    else begin
                      if
                        verify && not (verify_stream ~stream_off:got ~len:n)
                      then all_ok := false;
                      recv_loop (got + n)
                    end))
        in
        for buf = 0 to nbuf - 1 do
          send_loop buf
        done;
        recv_loop 0)
  in
  for i = 0 to flows - 1 do
    launch i
  done;
  Sim.run ~until:(Simtime.s 600.) sim;
  if !done_flows < flows then
    failwith
      (Printf.sprintf "Ttcp.run_parallel: %d of %d flows completed"
         !done_flows flows);
  let elapsed = Simtime.sub !t_last !t0 in
  {
    p_flows = flows;
    p_total = total;
    p_elapsed = elapsed;
    p_mbit = Simtime.rate_mbit ~bytes:(flows * total) elapsed;
    p_verified = !all_ok;
    p_flow_mbit =
      Array.map
        (fun e ->
          if Simtime.compare e Simtime.zero > 0 then
            Simtime.rate_mbit ~bytes:total e
          else 0.)
        flow_elapsed;
  }
