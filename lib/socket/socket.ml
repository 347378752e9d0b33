type path_config = {
  force_uio : bool;
  use_pin_cache : bool;
  align_fixup : bool;
  adaptive : bool;
}

let default_paths =
  {
    force_uio = false;
    use_pin_cache = true;
    align_fixup = false;
    adaptive = false;
  }

type stats = {
  mutable writes : int;
  mutable uio_writes : int;
  mutable copy_writes : int;
  mutable unaligned_fallbacks : int;
  mutable align_fixups : int;
  mutable bytes_written : int;
  mutable reads : int;
  mutable wcab_copyouts : int;
  mutable kernel_copy_reads : int;
  mutable bytes_read : int;
  mutable write_blocks : int;
  mutable read_blocks : int;
  mutable pin_fallbacks : int;
}

let new_stats () =
  {
    writes = 0;
    uio_writes = 0;
    copy_writes = 0;
    unaligned_fallbacks = 0;
    align_fixups = 0;
    bytes_written = 0;
    reads = 0;
    wcab_copyouts = 0;
    kernel_copy_reads = 0;
    bytes_read = 0;
    write_blocks = 0;
    read_blocks = 0;
    pin_fallbacks = 0;
  }

(* Where the socket's one read stands.  [Rd_syscall] covers the syscall
   charge and the sb_wait charge after a blocked reader is woken: the
   read will [attempt] when that charge completes.  [Rd_pumping] is the
   pipelined delivery that [pump] drives; a pump that arrives in any
   other phase belongs to a finished read and does nothing. *)
type rd_phase = Rd_idle | Rd_syscall | Rd_blocked | Rd_pumping

type t = {
  host : Host.t;
  space : Addr_space.t;
  proc : string;
  paths : path_config;
  pcb : Tcp.pcb;
  policy : Path_policy.t option;
  mutable policy_registered : bool;
  writers_waiting : (unit -> unit) Queue.t;
      (* writers parked on socket-buffer space; several can be in flight
         at once when the application pipelines its writes *)
  mutable appending : bool;
  append_queue : (unit -> unit) Queue.t;
      (* stream-order lock: one write appends to the send queue at a
         time, so pipelined writers cannot interleave their chunks when
         one of them blocks on buffer space mid-write.  A UIO write
         releases the lock once fully appended (its drain wait happens
         off-lock — that is what lets the next write overlap with this
         one's DMA); a copying write holds it to completion. *)
  mutable pending_notifies : Mbuf.notify list;
      (* in-flight writes' UIO counters, force-drained if the
         connection dies so no writer can hang *)
  mutable last_tx_faults : int;
      (* interface fault count at the last adaptive decision; a rise
         feeds a penalty into the policy *)
  mutable rx_observations : int;
      (* delivered chains whose cost fed the policy's rx tables *)
  mutable closed : bool;
  mutable event_hook : (unit -> unit) option;
      (* readiness edge notification for {!Sockpoll}: fired whenever the
         pcb reports readable / sendable / closed, after the socket's own
         wakeups ran (so level checks observe the post-wakeup state) *)
  s : stats;
  copyout : Copyout_path.ctx;
      (* receive delivery context: fixed for the socket's life *)
  (* The active copy-route write.  It holds the append lock until it
     completes, so there is at most one. *)
  mutable wr_region : Region.t;
  mutable wr_off : int;  (* bytes of [wr_region] appended so far *)
  mutable wr_chunk : int;
      (* the chunk whose copy is being charged; 0 while the writer waits
         for buffer space *)
  mutable wr_next : (unit -> unit) option;
      (* what runs once the region is appended; [None] for a whole
         write, which [finish_copy_write] ends *)
  mutable wr_k : unit -> unit;  (* the caller's continuation *)
  mutable wr_observe : bool;  (* feed the policy's copy-path cost *)
  mutable wr_len : int;
  mutable wr_t0 : Simtime.t;
  mutable wr_step : unit -> unit;  (* a copy or post-wake charge completed *)
  mutable wr_wake : unit -> unit;  (* parked on buffer space, now woken *)
  (* The active read (one reader per socket).  [rd_exact] loops reads
     for {!read_exact}; [rd_base] is what its earlier reads landed. *)
  mutable rd_phase : rd_phase;
  mutable rd_region : Region.t;
  mutable rd_k : int -> unit;
  mutable rd_exact : bool;
  mutable rd_base : int;
  mutable rd_claimed : int;  (* bytes past [rd_base] assigned to chains *)
  mutable rd_outstanding : int;  (* posted chains not yet fully landed *)
  mutable rd_parked : bool;  (* pump waiting on readability, in flight *)
  mutable rd_had_wcab : bool;
  mutable rd_t0 : Simtime.t;
  mutable rd_attempt : unit -> unit;
      (* the syscall (or sb_wait) charge completed *)
  mutable rd_pump : unit -> unit;
      (* a parked pump's sb_wait charge completed *)
  mutable rd_delivered : unit -> unit;  (* one posted chain landed *)
}

(* Every this-many rx cost observations, stage a hint for the peer. *)
let rx_hint_period = 8

let pcb t = t.pcb
let stats t = t.s
let space t = t.space
let path_policy t = t.policy
let set_event_hook t f = t.event_hook <- Some f
let notify_event t = match t.event_hook with Some f -> f () | None -> ()

(* What the socket's per-call fields hold between calls, so a finished
   call keeps nothing of the caller's alive. *)
let no_region = Region.create ~vaddr:0 0

(* Syscall-side costs run on the CPU of the shard owning the connection
   (explicit: callbacks waking blocked readers/writers arrive from timer
   or interrupt context, where shard inheritance would misattribute). *)
let charge ?(site = Cpu.Socket) t cost k =
  Host.in_proc_on t.host ~shard:(Tcp.pcb_shard t.pcb) ~proc:t.proc ~site cost
    k

let block_writer t k =
  t.s.write_blocks <- t.s.write_blocks + 1;
  Queue.push k t.writers_waiting

(* The lock passes to the next queued writer, which takes it afresh. *)
let release_append t =
  t.appending <- false;
  if not (Queue.is_empty t.append_queue) then (Queue.pop t.append_queue) ()

(* ---------------- write ---------------- *)

let profile t = t.host.Host.profile

(* Single-copy transmit path (§4.4): map + pin, enqueue an M_UIO
   descriptor, and let the UIO byte counter resynchronize us with the
   driver's DMA completions.  When the pin fails the buffer never becomes
   DMA-able: [on_pin_fail] runs (after charging any wasted eviction work)
   and the caller degrades to the copying path. *)
let write_uio t region ~on_pin_fail k =
  let total = Region.length region in
  (* Map into kernel space and pin — charged to the writing process, one
     socket-buffer chunk at a time would be more faithful, but the cost is
     linear in pages either way.  Wiring comes first: no descriptor state
     exists yet if it fails. *)
  match Addr_space.wire t.space region ~cached:t.paths.use_pin_cache with
  | Error wasted ->
      t.s.pin_fallbacks <- t.s.pin_fallbacks + 1;
      charge t wasted on_pin_fail
  | Ok vm_cost ->
  Obs_trace.emit Obs_trace.Sock_write ~a:total ~b:1;
  let notify = Mbuf.make_notify () in
  Mbuf.notify_add notify total;
  t.pending_notifies <- notify :: t.pending_notifies;
  charge t vm_cost (fun () ->
      let finish () =
        t.pending_notifies <-
          List.filter (fun n -> n != notify) t.pending_notifies;
        charge t
          (Addr_space.unwire t.space region ~cached:t.paths.use_pin_cache)
          k
      in
      let rec push off =
        if off >= total then begin
          (* All data enqueued: hand the append lock to the next writer,
             then wait for the DMAs (copy semantics).  The next write
             appends while this one's bytes drain — that overlap is the
             double-buffered send pipeline. *)
          release_append t;
          if notify.Mbuf.dma_pending = 0 then finish ()
          else notify.Mbuf.on_drained <- finish
        end
        else begin
          let chunk = min (total - off) (Tcp.pcb_config t.pcb).Tcp.snd_buf in
          let try_append () =
            if Tcp.snd_space t.pcb >= chunk then begin
              let sub = Region.sub region ~off ~len:chunk in
              let m = Mbuf.make_uio ~region:sub ~notify:(Some notify) in
              (match Tcp.sosend_append t.pcb ~proc:t.proc m with
              | Ok () -> push (off + chunk)
              | Error _ ->
                  (* Connection went away: drain the counter and fall
                     through to completion so the app does not hang; the
                     data is lost, as on a real reset. *)
                  Mbuf.notify_complete_n notify notify.Mbuf.dma_pending;
                  push total)
            end
            else begin
              let retry () =
                charge t (Memcost.sb_wait (profile t)) (fun () ->
                    push off)
              in
              block_writer t retry
            end
          in
          try_append ()
        end
      in
      push 0)

(* Adaptive routing's feedback: the observed (simulated) time until the
   app may reuse the buffer — which is what copy semantics make
   app-visible — feeds the policy's online cutover estimate. *)
let observe_tx t ~route ~len ~t0 =
  match t.policy with
  | Some policy ->
      Path_policy.observe policy ~route ~len
        ~cost:(Simtime.sub (Host.now t.host) t0)
  | None -> ()

(* The end of a whole copy-route write: release the append lock, feed
   the policy when asked to, then continue with the caller's [wr_k]. *)
let finish_copy_write t =
  (* Read the fields first: releasing the lock may start the next
     copy-route write, which refills them. *)
  let k = t.wr_k and observe = t.wr_observe in
  let len = t.wr_len and t0 = t.wr_t0 in
  t.wr_k <- ignore;
  release_append t;
  if observe then observe_tx t ~route:Path_policy.Copy ~len ~t0;
  k ()

(* Traditional path: copy through kernel mbufs, a chunk per charge, until
   every byte is buffered.  The write's progress lives in the socket's
   [wr_*] fields. *)
let rec copy_push t =
  let total = Region.length t.wr_region in
  let off = t.wr_off in
  if off >= total then copy_done t
  else begin
    let space = Tcp.snd_space t.pcb in
    if space <= 0 then begin
      t.wr_chunk <- 0;
      block_writer t t.wr_wake
    end
    else begin
      let chunk = min (total - off) space in
      t.wr_chunk <- chunk;
      charge ~site:Cpu.Copy t
        (Memcost.copy (profile t) ~locality:Memcost.Cold chunk)
        t.wr_step
    end
  end

and copy_done t =
  let next = t.wr_next in
  t.wr_next <- None;
  t.wr_region <- no_region;
  match next with Some f -> f () | None -> finish_copy_write t

let copy_chunk t =
  let chunk = t.wr_chunk and off = t.wr_off in
  Obs_ledger.touch Obs_ledger.Sock_tx_copy Obs_ledger.Copy chunk;
  let m = Mbuf.of_region t.wr_region ~off ~len:chunk in
  match Tcp.sosend_append t.pcb ~proc:t.proc m with
  | Ok () ->
      t.wr_off <- off + chunk;
      copy_push t
  | Error _ -> copy_done t

(* Copy [region] in, then run [next] ([None]: finish the whole write). *)
let write_copy t region next =
  Obs_trace.emit Obs_trace.Sock_write ~a:(Region.length region) ~b:0;
  t.wr_region <- region;
  t.wr_off <- 0;
  t.wr_next <- next;
  copy_push t

(* A whole write on the copying path. *)
let copy_write t region ~observe ~t0 k =
  t.wr_k <- k;
  t.wr_observe <- observe;
  t.wr_len <- Region.length region;
  t.wr_t0 <- t0;
  write_copy t region None

let single_copy_route t =
  match Tcp.remote_iface t.pcb with
  | Some ifc -> ifc.Netif.single_copy
  | None -> false

(* The body of a write, run under the append lock. *)
let write_locked t region k =
  let len = Region.length region in
  let aligned = Region.is_word_aligned region in
  match t.policy with
  | Some policy when single_copy_route t && not t.paths.force_uio ->
      (* Adaptive routing: size / alignment / pin-cache warmth feed the
         policy.  Registry registration is deferred to the first routing
         decision so an idle peer's policy (a receiver never routes a
         write) cannot replace-register over the active sender's. *)
      if not t.policy_registered then begin
        t.policy_registered <- true;
        Path_policy.register policy
      end;
      (* Device-fault feedback: a rise in the interface's fault count
         (netmem exhaustion, adaptor reset) since our last decision
         penalizes the outboard path until the spike decays. *)
      (match Tcp.remote_iface t.pcb with
      | Some ifc when ifc.Netif.tx_faults > t.last_tx_faults ->
          t.last_tx_faults <- ifc.Netif.tx_faults;
          Path_policy.penalize policy
      | Some _ | None -> ());
      let pin_warm =
        t.paths.use_pin_cache && Addr_space.is_cached t.space region
      in
      let route, reason = Path_policy.decide policy ~len ~aligned ~pin_warm in
      let t0 = Host.now t.host in
      (* Trivial decisions skip the cost tables entirely — the whole
         point of the early exit is to keep small sends off the
         EWMA/refresh bookkeeping. *)
      let observe = reason <> Path_policy.Trivial in
      (match route with
      | Path_policy.Uio ->
          t.s.uio_writes <- t.s.uio_writes + 1;
          write_uio t region
            ~on_pin_fail:(fun () ->
              (* The kernel would not wire the buffer: penalize the
                 outboard path and finish the write by copying (still
                 holding the append lock). *)
              Path_policy.penalize policy;
              t.s.copy_writes <- t.s.copy_writes + 1;
              copy_write t region ~observe ~t0 k)
            (fun () ->
              if observe then observe_tx t ~route:Path_policy.Uio ~len ~t0;
              k ())
      | Path_policy.Copy ->
          if not aligned then
            t.s.unaligned_fallbacks <- t.s.unaligned_fallbacks + 1;
          t.s.copy_writes <- t.s.copy_writes + 1;
          copy_write t region ~observe ~t0 k)
  | Some _ | None ->
      let want_uio =
        single_copy_route t
        && (t.paths.force_uio || len >= Path_policy.static_cutover)
      in
      if want_uio && aligned then begin
        t.s.uio_writes <- t.s.uio_writes + 1;
        write_uio t region
          ~on_pin_fail:(fun () ->
            t.s.copy_writes <- t.s.copy_writes + 1;
            copy_write t region ~observe:false ~t0:0 k)
          k
      end
      else if want_uio && t.paths.align_fixup && len > 64 then begin
        (* §4.5 fix-up: copy the sub-word head, DMA the aligned bulk.
           The append lock spans head and bulk so no sibling write can
           slip between them. *)
        let head_len = 4 - (Region.vaddr region land 3) in
        t.s.align_fixups <- t.s.align_fixups + 1;
        t.s.uio_writes <- t.s.uio_writes + 1;
        t.s.copy_writes <- t.s.copy_writes + 1;
        write_copy t (Region.sub region ~off:0 ~len:head_len)
          (Some
             (fun () ->
               let bulk =
                 Region.sub region ~off:head_len ~len:(len - head_len)
               in
               write_uio t bulk
                 ~on_pin_fail:(fun () ->
                   copy_write t bulk ~observe:false ~t0:0 k)
                 k))
      end
      else begin
        if want_uio && not aligned then
          t.s.unaligned_fallbacks <- t.s.unaligned_fallbacks + 1;
        t.s.copy_writes <- t.s.copy_writes + 1;
        copy_write t region ~observe:false ~t0:0 k
      end

let write t region k =
  t.s.writes <- t.s.writes + 1;
  t.s.bytes_written <- t.s.bytes_written + Region.length region;
  (* One closure per write, run first after the syscall charge and again
     when the append lock passes to it. *)
  let rec locked () =
    if t.appending then Queue.push locked t.append_queue
    else begin
      t.appending <- true;
      write_locked t region k
    end
  in
  charge t (Memcost.syscall (profile t)) locked

(* ---------------- read ---------------- *)

let eof_state t =
  match Tcp.state t.pcb with
  | Tcp.Close_wait | Tcp.Closing | Tcp.Last_ack | Tcp.Time_wait | Tcp.Closed
    ->
      Tcp.recv_available t.pcb = 0
  | Tcp.Syn_sent | Tcp.Established | Tcp.Fin_wait_1 | Tcp.Fin_wait_2 -> false

(* ---------------- readiness (level-triggered, for Sockpoll) ------- *)

let readable t =
  Tcp.recv_available t.pcb > 0
  || t.closed
  || (match Tcp.state t.pcb with
     | Tcp.Close_wait | Tcp.Closing | Tcp.Last_ack | Tcp.Time_wait
     | Tcp.Closed ->
         true (* EOF (or pending data followed by EOF) never blocks *)
     | Tcp.Syn_sent | Tcp.Established | Tcp.Fin_wait_1 | Tcp.Fin_wait_2 ->
         false)

let writable t =
  (not t.closed)
  &&
  match Tcp.state t.pcb with
  | Tcp.Established | Tcp.Close_wait -> Tcp.snd_space t.pcb > 0
  | _ -> false

let is_closed t = t.closed || Tcp.state t.pcb = Tcp.Closed

let rec chain_has_wcab (mb : Mbuf.t) =
  Mbuf.kind mb = Mbuf.K_wcab
  || match mb.Mbuf.next with Some n -> chain_has_wcab n | None -> false

(* Receiver half of the bidirectional path policy: the simulated time
   from syscall entry to last byte landed is this host's delivery cost
   for the chain — outboard chains (copy-out) vs. regular ones (2-copy).
   Fed into the local rx tables and, every few samples, staged as a hint
   the next outgoing ACK piggybacks back to the sender.  Chains in the
   trivial band are skipped, mirroring the transmit-side early exit. *)
let observe_rx_cost t ~had_wcab ~len ~t0 =
  match t.policy with
  | None -> ()
  | Some policy ->
      if len >= Path_policy.cutover policy lsr 2 then begin
        let route = if had_wcab then Path_policy.Uio else Path_policy.Copy in
        Path_policy.observe_rx policy ~route ~len
          ~cost:(Simtime.sub (Host.now t.host) t0);
        t.rx_observations <- t.rx_observations + 1;
        if t.rx_observations mod rx_hint_period = 0 then begin
          let bucket, uio_us, copy_us = Path_policy.rx_hint policy ~len in
          if uio_us > 0 || copy_us > 0 then
            Tcp.post_rx_cost t.pcb ~bucket ~uio_us ~copy_us
        end
      end

(* One read syscall: charged, then [attempt]ed. *)
let start_read t =
  t.s.reads <- t.s.reads + 1;
  t.rd_phase <- Rd_syscall;
  charge t (Memcost.syscall (profile t)) t.rd_attempt

(* A read syscall returned [n]: {!read_exact} goes round again while the
   region has room and the stream has not ended; otherwise the caller's
   continuation runs, after the socket has let go of it and its region. *)
let read_returned t n =
  if t.rd_exact && n > 0 && t.rd_base + n < Region.length t.rd_region
  then begin
    t.rd_base <- t.rd_base + n;
    start_read t
  end
  else begin
    let k = t.rd_k and total = t.rd_base + n in
    t.rd_k <- ignore;
    t.rd_region <- no_region;
    t.rd_phase <- Rd_idle;
    k total
  end

let finish_read t =
  t.rd_phase <- Rd_idle;
  t.rd_parked <- false;
  let got = t.rd_claimed in
  t.s.bytes_read <- t.s.bytes_read + got;
  observe_rx_cost t ~had_wcab:t.rd_had_wcab ~len:got ~t0:t.rd_t0;
  read_returned t got

(* Pipelined receive: instead of draining one recv and waiting for all of
   its copy-outs (a full barrier per syscall), post each chain's delivery
   and immediately pull whatever has arrived in the meantime, claiming
   sequential destination offsets so delivery stays in order.  While the
   adaptor's copy-out engine works on chain n, the auto-DMA engine is
   landing chain n+1, and the socket hands it over without waiting —
   that overlap is what the two-channel CAB model (see {!Cab}) buys.
   The read completes once nothing more is available and every posted
   delivery has landed; it never blocks after the first byte.  Outside
   [Rd_pumping] a pump is a late one of a finished read (the [pump ()]
   after a delivery that completed synchronously, or a parked wake's
   charge), and does nothing. *)
let rec pump t =
  if t.rd_phase = Rd_pumping then begin
    let cap = Region.length t.rd_region - t.rd_base in
    let avail = Tcp.recv_available t.pcb in
    let want = min avail (cap - t.rd_claimed) in
    (* Claim whole chains: stopping a claim short of a chain boundary
       would split the outboard segment into two copy-outs (a sliver and
       a remainder), each paying full engine setup, and the sliver's post
       would wedge between back-to-back full-segment copy-outs.  Better
       to return a short read at the boundary — the next read claims the
       rest aligned.  A chain longer than the whole destination still
       splits (progress for reads smaller than a segment). *)
    let first = Tcp.recv_first_chain_len t.pcb in
    let claim =
      if want = 0 then 0
      else if first <= want then first
      else if t.rd_claimed = 0 then want
      else 0
    in
    if claim = 0 then begin
      if t.rd_outstanding = 0 then finish_read t
      else if
        want = 0
        && cap - t.rd_claimed > 0
        && (not t.rd_parked)
        && not (eof_state t || t.closed)
      then
        (* Posted deliveries still in flight and budget left: park on
           readability so a chain arriving mid-pipeline is claimed (and
           its copy-out posted) immediately, not at the next completion
           — claiming early keeps the copy-out queue deep and lets the
           rcv window reopen while the engine is still busy. *)
        t.rd_parked <- true
    end
    else
      match Tcp.recv t.pcb ~max:claim with
      | None -> if t.rd_outstanding = 0 then finish_read t
      | Some chain ->
          let got = Mbuf.chain_len chain in
          let dst_off = t.rd_base + t.rd_claimed in
          t.rd_claimed <- t.rd_claimed + got;
          t.rd_outstanding <- t.rd_outstanding + 1;
          if (not t.rd_had_wcab) && chain_has_wcab chain then
            t.rd_had_wcab <- true;
          Obs_trace.emit Obs_trace.Sock_read ~a:got ~b:avail;
          Copyout_path.deliver_chain t.copyout
            ~iface:(Tcp.remote_iface t.pcb) chain t.rd_region ~dst_off
            ~limit:got t.rd_delivered;
          pump t
  end

let attempt t =
  if Tcp.recv_available t.pcb = 0 then begin
    if eof_state t || t.closed then read_returned t 0
    else begin
      t.s.read_blocks <- t.s.read_blocks + 1;
      t.rd_phase <- Rd_blocked
    end
  end
  else begin
    t.rd_phase <- Rd_pumping;
    t.rd_claimed <- 0;
    t.rd_outstanding <- 0;
    t.rd_parked <- false;
    t.rd_had_wcab <- false;
    t.rd_t0 <- Host.now t.host;
    pump t
  end

(* Readability (or the connection's end) reached a waiting reader. *)
let wake_reader t =
  match t.rd_phase with
  | Rd_blocked ->
      t.rd_phase <- Rd_syscall;
      charge t (Memcost.sb_wait (profile t)) t.rd_attempt
  | Rd_pumping when t.rd_parked ->
      t.rd_parked <- false;
      charge t (Memcost.sb_wait (profile t)) t.rd_pump
  | Rd_idle | Rd_syscall | Rd_pumping -> ()

let begin_read t region ~exact k =
  if t.rd_phase <> Rd_idle then
    invalid_arg "Socket.read: another read is in flight on this socket";
  t.rd_region <- region;
  t.rd_k <- k;
  t.rd_exact <- exact;
  t.rd_base <- 0;
  start_read t

let read t region k = begin_read t region ~exact:false k

let read_exact t region k =
  if Region.length region = 0 then k 0 else begin_read t region ~exact:true k

(* ---------------- setup ---------------- *)

(* Wake every parked writer: each re-checks the space it needs, so a
   spurious wake only costs a recheck. *)
let wake_writers t =
  if not (Queue.is_empty t.writers_waiting) then begin
    let woken = Queue.create () in
    Queue.transfer t.writers_waiting woken;
    Queue.iter (fun k -> k ()) woken
  end

let create ~host ~space ~proc ?(paths = default_paths) pcb =
  let policy =
    if paths.adaptive then Some (Path_policy.create ()) else None
  in
  let s = new_stats () in
  let copyout =
    {
      Copyout_path.host;
      space;
      proc;
      cached = paths.use_pin_cache;
      note =
        (function
        | Copyout_path.Kernel_copy ->
            s.kernel_copy_reads <- s.kernel_copy_reads + 1
        | Copyout_path.Copyout -> s.wcab_copyouts <- s.wcab_copyouts + 1
        | Copyout_path.Pin_fallback -> s.pin_fallbacks <- s.pin_fallbacks + 1);
    }
  in
  let t =
    {
      host;
      space;
      proc;
      paths;
      pcb;
      policy;
      policy_registered = false;
      writers_waiting = Queue.create ();
      appending = false;
      append_queue = Queue.create ();
      pending_notifies = [];
      last_tx_faults = 0;
      rx_observations = 0;
      closed = false;
      event_hook = None;
      s;
      copyout;
      wr_region = no_region;
      wr_off = 0;
      wr_chunk = 0;
      wr_next = None;
      wr_k = ignore;
      wr_observe = false;
      wr_len = 0;
      wr_t0 = Simtime.zero;
      wr_step = ignore;
      wr_wake = ignore;
      rd_phase = Rd_idle;
      rd_region = no_region;
      rd_k = ignore;
      rd_exact = false;
      rd_base = 0;
      rd_claimed = 0;
      rd_outstanding = 0;
      rd_parked = false;
      rd_had_wcab = false;
      rd_t0 = Simtime.zero;
      rd_attempt = ignore;
      rd_pump = ignore;
      rd_delivered = ignore;
    }
  in
  (* The continuations close over the socket, so they are set once it
     exists: a [let rec] record would be built twice. *)
  t.wr_step <- (fun () -> if t.wr_chunk > 0 then copy_chunk t else copy_push t);
  t.wr_wake <- (fun () -> charge t (Memcost.sb_wait (profile t)) t.wr_step);
  t.rd_attempt <- (fun () -> attempt t);
  t.rd_pump <- (fun () -> pump t);
  t.rd_delivered <-
    (fun () ->
      t.rd_outstanding <- t.rd_outstanding - 1;
      pump t);
  (* Bidirectional policy: hints the peer piggybacks on its ACKs land in
     our policy's receive-side tables, so the cutover accounts for what
     our sends cost the receiver. *)
  (match policy with
  | Some p ->
      Tcp.set_rx_cost_handler pcb (fun ~bucket ~uio_us ~copy_us ->
          Path_policy.feed_remote_rx p ~bucket
            ~uio_us:(float_of_int uio_us)
            ~copy_us:(float_of_int copy_us))
  | None -> ());
  Tcp.set_callbacks pcb
    ~on_readable:(fun () ->
      wake_reader t;
      notify_event t)
    ~on_sendable:(fun () ->
      wake_writers t;
      notify_event t)
    ~on_closed:(fun () ->
      (* Wake anyone blocked so the simulation cannot wedge. *)
      let notifies = t.pending_notifies in
      t.pending_notifies <- [];
      List.iter
        (fun n ->
          if n.Mbuf.dma_pending > 0 then
            Mbuf.notify_complete_n n n.Mbuf.dma_pending)
        notifies;
      wake_reader t;
      wake_writers t;
      notify_event t)
    ();
  t

let close t =
  t.closed <- true;
  Tcp.close t.pcb

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "writes %d (%d uio / %d copy; %d unaligned-fallback, %d fixups, %d \
     pin-fallbacks), %d B out; reads %d (%d dma copy-outs, %d kernel \
     copies), %d B in; blocked %d/%d w/r"
    s.writes s.uio_writes s.copy_writes s.unaligned_fallbacks s.align_fixups
    s.pin_fallbacks s.bytes_written s.reads s.wcab_copyouts
    s.kernel_copy_reads s.bytes_read s.write_blocks s.read_blocks
