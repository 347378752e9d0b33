type path_config = {
  force_uio : bool;
  uio_threshold : int;
  use_pin_cache : bool;
  pin_cache_pages : int;
  align_fixup : bool;
  adaptive : bool;
}

let default_paths =
  {
    force_uio = false;
    uio_threshold = 16 * 1024;
    use_pin_cache = true;
    pin_cache_pages = 1024;
    align_fixup = false;
    adaptive = false;
  }

type stats = {
  writes : int;
  uio_writes : int;
  copy_writes : int;
  unaligned_fallbacks : int;
  align_fixups : int;
  bytes_written : int;
  reads : int;
  wcab_copyouts : int;
  kernel_copy_reads : int;
  bytes_read : int;
  write_blocks : int;
  read_blocks : int;
  pin_fallbacks : int;
}

let zero_stats =
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

type t = {
  host : Host.t;
  space : Addr_space.t;
  proc : string;
  paths : path_config;
  pcb : Tcp.pcb;
  cache : Pin_cache.t option;
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
  mutable reader_waiting : (unit -> unit) option;
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
  mutable s : stats;
}

(* Every this-many rx cost observations, stage a hint for the peer. *)
let rx_hint_period = 8

let pcb t = t.pcb
let stats t = t.s
let pin_cache t = t.cache
let path_policy t = t.policy
let set_event_hook t f = t.event_hook <- Some f
let notify_event t = match t.event_hook with Some f -> f () | None -> ()

let create ~host ~space ~proc ?(paths = default_paths) pcb =
  let cache =
    if paths.use_pin_cache then
      Some (Pin_cache.create ~space ~max_pages:paths.pin_cache_pages)
    else None
  in
  let policy =
    if paths.adaptive then
      Some (Path_policy.create ~cutover:paths.uio_threshold ())
    else None
  in
  let t =
    {
      host;
      space;
      proc;
      paths;
      pcb;
      cache;
      policy;
      policy_registered = false;
      writers_waiting = Queue.create ();
      appending = false;
      append_queue = Queue.create ();
      reader_waiting = None;
      pending_notifies = [];
      last_tx_faults = 0;
      rx_observations = 0;
      closed = false;
      event_hook = None;
      s = zero_stats;
    }
  in
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
      (match t.reader_waiting with
      | Some k ->
          t.reader_waiting <- None;
          k ()
      | None -> ());
      notify_event t)
    ~on_sendable:(fun () ->
      (* Wake every parked writer: each re-checks the space it needs, so
         a spurious wake only costs a recheck. *)
      let woken = Queue.create () in
      Queue.transfer t.writers_waiting woken;
      Queue.iter (fun k -> k ()) woken;
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
      (match t.reader_waiting with
      | Some k ->
          t.reader_waiting <- None;
          k ()
      | None -> ());
      let woken = Queue.create () in
      Queue.transfer t.writers_waiting woken;
      Queue.iter (fun k -> k ()) woken;
      notify_event t)
    ();
  t

(* Syscall-side costs run on the CPU of the shard owning the connection
   (explicit: callbacks waking blocked readers/writers arrive from timer
   or interrupt context, where shard inheritance would misattribute). *)
let charge ?(site = Cpu.Socket) t cost k =
  Host.in_proc_on t.host ~shard:(Tcp.pcb_shard t.pcb) ~proc:t.proc ~site cost
    k

let block_writer t k =
  t.s <- { t.s with write_blocks = t.s.write_blocks + 1 };
  Queue.push k t.writers_waiting

let acquire_append t f =
  if t.appending then Queue.push f t.append_queue
  else begin
    t.appending <- true;
    f ()
  end

let release_append t =
  if Queue.is_empty t.append_queue then t.appending <- false
  else (Queue.pop t.append_queue) () (* lock passes to the next writer *)

let block_reader t k =
  assert (t.reader_waiting = None);
  t.s <- { t.s with read_blocks = t.s.read_blocks + 1 };
  t.reader_waiting <- Some k

(* ---------------- write ---------------- *)

let profile t = t.host.Host.profile

(* Pin + map a region for DMA, fallibly: [Ok cost] when wired, [Error
   wasted] when the kernel refused the pin ("vm.pin_fail" fault site) —
   [wasted] is work already charged-for (cache evictions) before the
   refusal. *)
let try_wire t region =
  match t.cache with
  | Some cache -> (
      match Pin_cache.try_acquire cache region with
      | Ok c -> Ok c
      | Error (`Pin_exhausted wasted) -> Error wasted)
  | None -> (
      match Addr_space.try_pin t.space region with
      | Ok c -> Ok (Simtime.add c (Addr_space.map_into_kernel t.space region))
      | Error `Pin_exhausted -> Error Simtime.zero)

(* Single-copy transmit path (§4.4): map + pin, enqueue an M_UIO
   descriptor, and let the UIO byte counter resynchronize us with the
   driver's DMA completions.  When the pin fails the buffer never becomes
   DMA-able: [on_pin_fail] runs (after charging any wasted eviction work)
   and the caller degrades to the copying path. *)
let write_uio t region ~on_appended ~on_pin_fail k =
  let total = Region.length region in
  (* Map into kernel space and pin — charged to the writing process, one
     socket-buffer chunk at a time would be more faithful, but the cost is
     linear in pages either way.  Wiring comes first: no descriptor state
     exists yet if it fails. *)
  match try_wire t region with
  | Error wasted ->
      t.s <- { t.s with pin_fallbacks = t.s.pin_fallbacks + 1 };
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
        let unpin_cost =
          match t.cache with
          | Some cache -> Pin_cache.release cache region
          | None -> Addr_space.unpin t.space region
        in
        charge t unpin_cost k
      in
      let rec push off =
        if off >= total then begin
          (* All data enqueued: hand the append lock to the next writer,
             then wait for the DMAs (copy semantics).  The next write
             appends while this one's bytes drain — that overlap is the
             double-buffered send pipeline. *)
          on_appended ();
          if notify.Mbuf.dma_pending = 0 then finish ()
          else notify.Mbuf.on_drained <- finish
        end
        else begin
          let chunk = min (total - off) (Tcp.pcb_config t.pcb).Tcp.snd_buf in
          let try_append () =
            if Tcp.snd_space t.pcb >= chunk then begin
              let sub = Region.sub region ~off ~len:chunk in
              let hdr = { Mbuf.csum = None; notify = Some notify } in
              let m = Mbuf.make_uio ~space:t.space ~region:sub ~hdr in
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

(* Traditional path: copy through kernel mbufs; returns when all bytes are
   buffered. *)
let write_copy t region k =
  let total = Region.length region in
  Obs_trace.emit Obs_trace.Sock_write ~a:total ~b:0;
  let rec push off =
    if off >= total then k ()
    else begin
      let space = Tcp.snd_space t.pcb in
      if space <= 0 then begin
        let retry () =
          charge t (Memcost.sb_wait (profile t)) (fun () -> push off)
        in
        block_writer t retry
      end
      else begin
        let chunk = min (total - off) space in
        let copy_cost =
          Memcost.copy (profile t) ~locality:Memcost.Cold chunk
        in
        charge ~site:Cpu.Copy t copy_cost (fun () ->
            Obs_ledger.touch Obs_ledger.Sock_tx_copy Obs_ledger.Copy chunk;
            let m = Mbuf.of_region ~pkthdr:true region ~off ~len:chunk in
            match Tcp.sosend_append t.pcb ~proc:t.proc m with
            | Ok () -> push (off + chunk)
            | Error _ -> k ())
      end
    end
  in
  push 0

let single_copy_route t =
  Tcp.pcb_config t.pcb |> fun (cfg : Tcp.config) ->
  cfg.Tcp.single_copy
  &&
  match Tcp.remote_iface t.pcb with
  | Some ifc -> ifc.Netif.single_copy
  | None -> false

let write t region k =
  t.s <-
    {
      t.s with
      writes = t.s.writes + 1;
      bytes_written = t.s.bytes_written + Region.length region;
    };
  charge t (Memcost.syscall (profile t)) (fun () ->
      acquire_append t (fun () ->
      let len = Region.length region in
      let aligned = Region.is_word_aligned region in
      match t.policy with
      | Some policy when single_copy_route t && not t.paths.force_uio ->
          (* Adaptive routing: size / alignment / pin-cache warmth feed
             the policy; the observed (simulated) time until the app may
             reuse the buffer — which is what copy semantics make
             app-visible — feeds its online cutover estimate. *)
          (* Registry registration is deferred to the first routing
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
            match t.cache with
            | Some cache -> Pin_cache.is_resident cache region
            | None -> false
          in
          let route, reason =
            Path_policy.decide policy ~len ~aligned ~pin_warm
          in
          let t0 = Host.now t.host in
          let finish route () =
            (* Trivial decisions skip the cost tables entirely — the
               whole point of the early exit is to keep small sends off
               the EWMA/refresh bookkeeping. *)
            (match reason with
            | Path_policy.Trivial -> ()
            | _ ->
                Path_policy.observe policy ~route ~len
                  ~cost:(Simtime.sub (Host.now t.host) t0));
            k ()
          in
          (match route with
          | Path_policy.Uio ->
              t.s <- { t.s with uio_writes = t.s.uio_writes + 1 };
              write_uio t region
                ~on_appended:(fun () -> release_append t)
                ~on_pin_fail:(fun () ->
                  (* The kernel would not wire the buffer: penalize the
                     outboard path and finish the write by copying (still
                     holding the append lock). *)
                  Path_policy.penalize policy;
                  t.s <- { t.s with copy_writes = t.s.copy_writes + 1 };
                  write_copy t region (fun () ->
                      release_append t;
                      finish Path_policy.Copy ()))
                (finish Path_policy.Uio)
          | Path_policy.Copy ->
              if not aligned then
                t.s <-
                  {
                    t.s with
                    unaligned_fallbacks = t.s.unaligned_fallbacks + 1;
                  };
              t.s <- { t.s with copy_writes = t.s.copy_writes + 1 };
              write_copy t region (fun () ->
                  release_append t;
                  finish Path_policy.Copy ()))
      | Some _ | None ->
      let want_uio =
        single_copy_route t
        && (t.paths.force_uio || len >= t.paths.uio_threshold)
      in
      if want_uio && aligned then begin
        t.s <- { t.s with uio_writes = t.s.uio_writes + 1 };
        write_uio t region
          ~on_appended:(fun () -> release_append t)
          ~on_pin_fail:(fun () ->
            t.s <- { t.s with copy_writes = t.s.copy_writes + 1 };
            write_copy t region (fun () ->
                release_append t;
                k ()))
          k
      end
      else if want_uio && t.paths.align_fixup && len > 64 then begin
        (* §4.5 fix-up: copy the sub-word head, DMA the aligned bulk.
           The append lock spans head and bulk so no sibling write can
           slip between them. *)
        let head_len = 4 - (Region.vaddr region land 3) in
        t.s <-
          {
            t.s with
            align_fixups = t.s.align_fixups + 1;
            uio_writes = t.s.uio_writes + 1;
            copy_writes = t.s.copy_writes + 1;
          };
        write_copy t (Region.sub region ~off:0 ~len:head_len) (fun () ->
            let bulk = Region.sub region ~off:head_len ~len:(len - head_len) in
            write_uio t bulk
              ~on_appended:(fun () -> release_append t)
              ~on_pin_fail:(fun () ->
                write_copy t bulk (fun () ->
                    release_append t;
                    k ()))
              k)
      end
      else begin
        if want_uio && not aligned then
          t.s <-
            { t.s with unaligned_fallbacks = t.s.unaligned_fallbacks + 1 };
        t.s <- { t.s with copy_writes = t.s.copy_writes + 1 };
        write_copy t region (fun () ->
            release_append t;
            k ())
      end))

(* ---------------- read ---------------- *)

let eof_state t =
  match Tcp.state t.pcb with
  | Tcp.Close_wait | Tcp.Closing | Tcp.Last_ack | Tcp.Time_wait | Tcp.Closed
    ->
      Tcp.recv_available t.pcb = 0
  | Tcp.Listen | Tcp.Syn_sent | Tcp.Syn_received | Tcp.Established
  | Tcp.Fin_wait_1 | Tcp.Fin_wait_2 ->
      false

(* ---------------- readiness (level-triggered, for Sockpoll) ------- *)

let readable t =
  Tcp.recv_available t.pcb > 0
  || t.closed
  || (match Tcp.state t.pcb with
     | Tcp.Close_wait | Tcp.Closing | Tcp.Last_ack | Tcp.Time_wait
     | Tcp.Closed ->
         true (* EOF (or pending data followed by EOF) never blocks *)
     | Tcp.Listen | Tcp.Syn_sent | Tcp.Syn_received | Tcp.Established
     | Tcp.Fin_wait_1 | Tcp.Fin_wait_2 ->
         false)

let writable t =
  (not t.closed)
  &&
  match Tcp.state t.pcb with
  | Tcp.Established | Tcp.Close_wait -> Tcp.snd_space t.pcb > 0
  | _ -> false

let is_closed t = t.closed || Tcp.state t.pcb = Tcp.Closed

(* Move one received chain into the user region starting at [dst_off].
   Continuation gets called once every piece (sync copies and async DMA
   copy-outs) has landed. *)
let deliver_chain t chain region ~dst_off k =
  let ctx =
    {
      Copyout_path.host = t.host;
      space = t.space;
      proc = t.proc;
      cache = t.cache;
      on_kernel_copy =
        (fun _ ->
          t.s <- { t.s with kernel_copy_reads = t.s.kernel_copy_reads + 1 });
      on_copyout =
        (fun _ -> t.s <- { t.s with wcab_copyouts = t.s.wcab_copyouts + 1 });
      on_pin_fallback =
        (fun _ -> t.s <- { t.s with pin_fallbacks = t.s.pin_fallbacks + 1 });
    }
  in
  Copyout_path.deliver_chain ctx ~iface:(Tcp.remote_iface t.pcb) chain region
    ~dst_off ~limit:(Mbuf.chain_len chain) k

let rec chain_has_wcab (m : Mbuf.t option) =
  match m with
  | None -> false
  | Some mb -> Mbuf.kind mb = Mbuf.K_wcab || chain_has_wcab mb.Mbuf.next

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

let rec read t region k =
  t.s <- { t.s with reads = t.s.reads + 1 };
  charge t (Memcost.syscall (profile t)) (fun () -> read_attempt t region k)

(* Pipelined receive: instead of draining one recv and waiting for all of
   its copy-outs (a full barrier per syscall), post each chain's delivery
   and immediately pull whatever has arrived in the meantime, claiming
   sequential destination offsets so delivery stays in order.  While the
   adaptor's copy-out engine works on chain n, the auto-DMA engine is
   landing chain n+1, and the socket hands it over without waiting —
   that overlap is what the two-channel CAB model (see {!Cab}) buys.
   The read completes once nothing more is available and every posted
   delivery has landed; it never blocks after the first byte. *)
and read_attempt t region k =
  let avail = Tcp.recv_available t.pcb in
  if avail = 0 then begin
    if eof_state t || t.closed then k 0
    else
      block_reader t (fun () ->
          charge t (Memcost.sb_wait (profile t)) (fun () ->
              read_attempt t region k))
  end
  else begin
    let cap = Region.length region in
    let claimed = ref 0 (* bytes of [region] assigned to posted chains *) in
    let outstanding = ref 0 (* posted chains not yet fully landed *) in
    let finished = ref false in
    let parked = ref false (* pump waiting on readability, in-flight *) in
    let had_wcab = ref false in
    let t0 = Host.now t.host in
    let finish () =
      finished := true;
      if !parked then begin
        t.reader_waiting <- None;
        parked := false
      end;
      let got = !claimed in
      t.s <- { t.s with bytes_read = t.s.bytes_read + got };
      observe_rx_cost t ~had_wcab:!had_wcab ~len:got ~t0;
      k got
    in
    let rec pump () =
      if !finished then ()
      else begin
        let avail = Tcp.recv_available t.pcb in
        let want = min avail (cap - !claimed) in
        (* Claim whole chains: stopping a claim short of a chain boundary
           would split the outboard segment into two copy-outs (a sliver
           and a remainder), each paying full engine setup, and the
           sliver's post would wedge between back-to-back full-segment
           copy-outs.  Better to return a short read at the boundary —
           the next read claims the rest aligned.  A chain longer than
           the whole destination still splits (progress for reads smaller
           than a segment). *)
        let first = Tcp.recv_first_chain_len t.pcb in
        let claim =
          if want = 0 then 0
          else if first <= want then first
          else if !claimed = 0 then want
          else 0
        in
        if claim = 0 then begin
          if !outstanding = 0 then finish ()
          else if
            want = 0
            && cap - !claimed > 0
            && (not !parked)
            && t.reader_waiting = None
            && not (eof_state t || t.closed)
          then begin
            (* Posted deliveries still in flight and budget left: park on
               readability so a chain arriving mid-pipeline is claimed
               (and its copy-out posted) immediately, not at the next
               completion — claiming early keeps the copy-out queue deep
               and lets the rcv window reopen while the engine is still
               busy. *)
            parked := true;
            t.reader_waiting <-
              Some
                (fun () ->
                  parked := false;
                  if not !finished then
                    charge t (Memcost.sb_wait (profile t)) (fun () ->
                        pump ()))
          end
        end
        else
          match Tcp.recv t.pcb ~max:claim with
          | None -> if !outstanding = 0 then finish ()
          | Some chain ->
              let got = Mbuf.chain_len chain in
              let dst_off = !claimed in
              claimed := !claimed + got;
              incr outstanding;
              if (not !had_wcab) && chain_has_wcab (Some chain) then
                had_wcab := true;
              Obs_trace.emit Obs_trace.Sock_read ~a:got ~b:avail;
              deliver_chain t chain region ~dst_off (fun () ->
                  Mbuf.free chain;
                  decr outstanding;
                  pump ());
              pump ()
      end
    in
    pump ()
  end

let read_exact t region k =
  let total = Region.length region in
  let rec go off =
    if off >= total then k off
    else
      read t
        (Region.sub region ~off ~len:(total - off))
        (fun n -> if n = 0 then k off else go (off + n))
  in
  go 0

let close t =
  t.closed <- true;
  Tcp.close t.pcb


let listen ~stack_tcp ~host ~proc ?paths ~make_space ~port on_conn =
  Tcp.listen stack_tcp ~port ~on_accept:(fun pcb ->
      let space = make_space () in
      on_conn (create ~host ~space ~proc ?paths pcb))


let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "writes %d (%d uio / %d copy; %d unaligned-fallback, %d fixups, %d \
     pin-fallbacks), %d B out; reads %d (%d dma copy-outs, %d kernel \
     copies), %d B in; blocked %d/%d w/r"
    s.writes s.uio_writes s.copy_writes s.unaligned_fallbacks s.align_fixups
    s.pin_fallbacks s.bytes_written s.reads s.wcab_copyouts
    s.kernel_copy_reads s.bytes_read s.write_blocks s.read_blocks
