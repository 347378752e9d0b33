type rx_info = {
  rx_pkt : Netmem.packet;
  rx_head : Bytes.t;
  rx_head_len : int;
  rx_total_len : int;
  rx_complete : bool;
}

type intr = Sdma_done | Rx_packet of rx_info

type tx_src =
  | From_user of Region.t
  | From_kernel of { buf : Bytes.t; off : int; len : int }

type stats = {
  mutable sdma_transfers : int;
  mutable sdma_bytes : int;
  mutable sdma_chains : int;
  mutable mdma_packets : int;
  mutable mdma_bytes : int;
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable rx_dropped : int;
  mutable interrupts : int;
  mutable intr_events : int;
  mutable sdma_stalled : int;
  mutable intr_lost : int;
  mutable tx_recoveries : int;
}

type rx_pipe_stats = {
  rx_pipe_depth : int;
  mutable rx_pipe_posts : int;
  mutable rx_pipe_hwm : int;
  mutable rx_pipe_overlap : int;
  mutable rx_pipe_stalls : int;
}

(* Engine jobs: each engine [Resource] below keeps one of these records
   per queued hold, filled in place at the post and handed back to the
   engine's completion function. *)
type bus_job = {
  mutable b_pkt : Netmem.packet;
  mutable b_segs : chain_seg list;
  mutable b_total : int;
  mutable b_interrupt : bool;
  mutable b_on_complete : unit -> unit;
}

(* A pending notification, and an auto-DMA job: the event the engine
   raises when the head lands. *)
and intr_slot = { mutable ev : intr }

and copyout_job = {
  mutable c_pkt : Netmem.packet;
  mutable c_off : int;
  mutable c_len : int;
  mutable c_dst : Netif.copy_dest;
  mutable c_interrupt : bool;
  mutable c_on_complete : unit -> unit;
}

and chain_seg =
  | Seg_header of {
      len : int;
      fill : Bytes.t -> unit;
      csum : Csum_offload.tx option;
    }
  | Seg_payload of {
      src : tx_src;
      pkt_off : int;
      on_seg_complete : (unit -> unit) option;
    }

type t = {
  sim : Sim.t;
  profile : Host_profile.t;
  name : string;
  mem : Netmem.t;
  addr : int;
  transmit : Bytes.t -> dst:int -> channel:int -> unit;
  bus : bus_job Resource.t;
  (* The receive side runs as a two-stage pipeline on two independent
     SDMA channels: [rx_dma] auto-DMAs each arriving packet's head prefix
     (the checksum-verify engine's completion event), while [copyout]
     moves queued tails to the host — so the copy-out of packet [n]
     overlaps the DMA+verify of packet [n+1] instead of serializing
     behind it on one channel. *)
  rx_dma : intr_slot Resource.t;
  copyout : copyout_job Resource.t;
  mutable copyout_inflight : int;
  copyout_parked : copyout_job Ring.t;
      (* posts beyond [pipe.rx_pipe_depth] descriptor slots park here
         until a completion frees a slot *)
  mutable batch_handler : intr array -> int -> unit;
  pending_intrs : intr_slot Ring.t;
      (* notifications waiting for the next delivery burst, in raise
         order: each is queued at the current instant and drained no
         earlier, so FIFO order is (time, raise) order *)
  burst : intr array;  (* the burst handed to the handler, reused *)
  mutable intr_scheduled : bool;
  intr_timer : Sim.handle;
      (* one reusable zero-delay timer drives every delivery burst, so
         raising an interrupt never allocates a closure *)
  mutable autodma_words : int;
  stalled : (int, int) Hashtbl.t;
      (* packet id -> injected-stall count: posts that were accepted but
         will never commit; the driver's watchdog reads this "status
         register" to distinguish stuck from slow *)
  s : stats;
  pipe : rx_pipe_stats;
}

let blank_bus_job () =
  {
    b_pkt = Netmem.placeholder;
    b_segs = [];
    b_total = 0;
    b_interrupt = false;
    b_on_complete = ignore;
  }

let blank_intr_slot () = { ev = Sdma_done }

let no_dest = Netif.To_kernel (Bytes.empty, 0)

let blank_copyout_job () =
  {
    c_pkt = Netmem.placeholder;
    c_off = 0;
    c_len = 0;
    c_dst = no_dest;
    c_interrupt = false;
    c_on_complete = ignore;
  }

(* Publish this adaptor's counters under ["cab.<name>"]; gauges read the
   live record, and re-creating an adaptor with the same name replaces the
   previous registration (the benchmarks build one testbed at a time). *)
let register_obs t =
  let section = "cab." ^ t.name in
  let g name f = Obs.int_gauge ~section ~name f in
  g "sdma_transfers" (fun () -> t.s.sdma_transfers);
  g "sdma_bytes" (fun () -> t.s.sdma_bytes);
  g "sdma_chains" (fun () -> t.s.sdma_chains);
  g "mdma_packets" (fun () -> t.s.mdma_packets);
  g "mdma_bytes" (fun () -> t.s.mdma_bytes);
  g "rx_packets" (fun () -> t.s.rx_packets);
  g "rx_bytes" (fun () -> t.s.rx_bytes);
  g "rx_dropped" (fun () -> t.s.rx_dropped);
  g "interrupts" (fun () -> t.s.interrupts);
  g "intr_events" (fun () -> t.s.intr_events);
  g "sdma_stalled" (fun () -> t.s.sdma_stalled);
  g "intr_lost" (fun () -> t.s.intr_lost);
  g "tx_recoveries" (fun () -> t.s.tx_recoveries);
  (* Rx pipeline: copy-out engine occupancy and its overlap with the
     auto-DMA/verify engine. *)
  g "rx_pipe_depth" (fun () -> t.pipe.rx_pipe_depth);
  g "rx_pipe_posts" (fun () -> t.pipe.rx_pipe_posts);
  g "rx_pipe_inflight" (fun () -> t.copyout_inflight);
  g "rx_pipe_hwm" (fun () -> t.pipe.rx_pipe_hwm);
  g "rx_pipe_overlap" (fun () -> t.pipe.rx_pipe_overlap);
  g "rx_pipe_stalls" (fun () -> t.pipe.rx_pipe_stalls);
  (* Outboard-memory occupancy: the soak harness's leak checks diff these
     against their pre-run baseline through the registry.  Float gauges:
     perfbench's registry reader matches [Obs.M_gauge] for
     [netmem_in_use]. *)
  let f name v = Obs.gauge ~section ~name (fun () -> float_of_int (v ())) in
  f "netmem_in_use" (fun () -> Netmem.in_use t.mem);
  f "netmem_free_pages" (fun () -> Netmem.free_pages t.mem);
  f "netmem_failures" (fun () -> Netmem.failures t.mem)

(* Descriptor slots on the copy-out engine. *)
let rx_pipe_depth = 4

(* Maximum events delivered per burst. *)
let intr_budget = 64

(* NAPI-style coalesced notification delivery: completions and rx events
   queue up, and the host sees one delivery per burst — at most
   [intr_budget] events each — instead of one interrupt per packet.
   Delivery rides the adaptor's reusable zero-delay timer, so everything
   that became ready at this instant (e.g. the per-segment completions
   of a chained SDMA) lands in a single burst.  The oldest events move
   from the pending ring into the reusable [burst] array, so neither
   raising an event nor delivering a burst allocates. *)
let deliver_intrs t =
  let n = min intr_budget (Ring.length t.pending_intrs) in
  if n = 0 then t.intr_scheduled <- false
  else begin
    for i = 0 to n - 1 do
      let slot = Ring.peek t.pending_intrs in
      t.burst.(i) <- slot.ev;
      slot.ev <- Sdma_done;
      Ring.drop t.pending_intrs
    done;
    t.s.interrupts <- t.s.interrupts + 1;
    t.s.intr_events <- t.s.intr_events + n;
    Obs_trace.emit Obs_trace.Intr ~a:n ~b:intr_budget;
    t.batch_handler t.burst n;
    Array.fill t.burst 0 n Sdma_done;
    if Ring.length t.pending_intrs = 0 then t.intr_scheduled <- false
    else Sim.rearm t.sim t.intr_timer Simtime.zero
  end

let name t = t.name
let hippi_addr t = t.addr
let netmem t = t.mem
let sim t = t.sim

(* The latest installed handler wins: apps like raw_hippi take the
   adaptor over from the driver by reinstalling. *)
let set_batch_interrupt_handler t f = t.batch_handler <- f

let set_autodma_words t w =
  if w <= 0 then invalid_arg "Cab.set_autodma_words: must be positive";
  t.autodma_words <- w

let raise_intr t i =
  (Ring.push t.pending_intrs).ev <- i;
  if not t.intr_scheduled then begin
    if Fault.fire "cab.lost_intr" then
      (* The interrupt line glitched: the event stays queued but nothing
         schedules its delivery.  The next raise (later traffic) or a
         watchdog [poll] drains it along with everything queued before
         that instant. *)
      t.s.intr_lost <- t.s.intr_lost + 1
    else begin
      t.intr_scheduled <- true;
      Sim.rearm t.sim t.intr_timer Simtime.zero
    end
  end

let pending_events t = Ring.length t.pending_intrs

let poll t =
  let n = pending_events t in
  if n > 0 && not t.intr_scheduled then begin
    t.intr_scheduled <- true;
    Sim.rearm t.sim t.intr_timer Simtime.zero
  end;
  n

let require_word_aligned what v =
  if v land 3 <> 0 then
    invalid_arg
      (Printf.sprintf "Cab: %s (%d) violates the word-alignment restriction"
         what v)

(* ---- transmit ---- *)

let tx_alloc t ~len = Netmem.alloc t.mem ~len ~state:Netmem.Filling

let finalize_csum (pkt : Netmem.packet) =
  match pkt.csum with
  | None -> ()
  | Some c ->
      let field =
        Csum_offload.tx_finalize ~header_sum:pkt.header_sum
          ~body_sum:pkt.body_sum
      in
      Bytes.set_uint16_be pkt.buf c.Csum_offload.csum_offset field

let do_mdma t (pkt : Netmem.packet) ~dst ~channel ~keep =
  finalize_csum pkt;
  (* The wire frame is a recycled buffer: [deliver] on the receiving
     adaptor consumes it and returns it to the pool once the data has
     been copied into network memory. *)
  let frame = Bufpool.get Bufpool.shared pkt.len in
  Bytes.blit pkt.buf 0 frame 0 pkt.len;
  Obs_ledger.touch Obs_ledger.Media Obs_ledger.Copy pkt.len;
  t.s.mdma_packets <- t.s.mdma_packets + 1;
  t.s.mdma_bytes <- t.s.mdma_bytes + pkt.len;
  t.transmit frame ~dst ~channel;
  if keep then pkt.state <- Netmem.Held
  else begin
    pkt.state <- Netmem.Ready;
    Netmem.free t.mem pkt
  end

(* The last outstanding SDMA of a packet releases its queued media
   request, which [mdma_send] left in the packet's [mdma_*] fields. *)
let sdma_finished t (pkt : Netmem.packet) =
  pkt.sdma_pending <- pkt.sdma_pending - 1;
  if pkt.sdma_pending = 0 && pkt.mdma_queued then begin
    pkt.mdma_queued <- false;
    do_mdma t pkt ~dst:pkt.mdma_dst ~channel:pkt.mdma_channel
      ~keep:pkt.mdma_keep
  end

(* Injected stuck descriptor: the post was accepted (it holds its
   [sdma_pending] share, so a queued MDMA keeps waiting) but it will
   never occupy the bus, commit, or complete. *)
let note_stall t (pkt : Netmem.packet) =
  t.s.sdma_stalled <- t.s.sdma_stalled + 1;
  Hashtbl.replace t.stalled pkt.Netmem.id
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.stalled pkt.Netmem.id))

let stalled_posts t (pkt : Netmem.packet) =
  Option.value ~default:0 (Hashtbl.find_opt t.stalled pkt.Netmem.id)

(* Reclaim ONE stalled post without committing: release its pending share
   but do NOT run [sdma_finished] — the recovering driver reposts
   immediately, and the queued MDMA request must fire on the *reposted*
   transfer's completion, not here.  One-at-a-time so concurrent watchdogs
   on the same packet each pair exactly one reclaim with one repost. *)
let clear_stall t (pkt : Netmem.packet) =
  match Hashtbl.find_opt t.stalled pkt.Netmem.id with
  | None -> ()
  | Some n ->
      if n <= 1 then Hashtbl.remove t.stalled pkt.Netmem.id
      else Hashtbl.replace t.stalled pkt.Netmem.id (n - 1);
      pkt.sdma_pending <- pkt.sdma_pending - 1;
      t.s.tx_recoveries <- t.s.tx_recoveries + 1

(* Validation happens at post time (the caller's bug surfaces where it was
   made); the commits run when the bus transfer completes. *)

let validate_header (pkt : Netmem.packet) ~len =
  require_word_aligned "header length" len;
  if len > Bytes.length pkt.buf then
    invalid_arg "Cab.sdma_chain: header larger than packet buffer"

(* [fill] writes the [len]-byte header into the front of [pkt.buf]. *)
let commit_header (pkt : Netmem.packet) ~len ~fill ~csum =
  pkt.hdr_len <- len;
  pkt.csum <- csum;
  fill pkt.buf;
  match csum with
  | None -> ()
  | Some c ->
      (* The transmit checksum engine sums the words as they stream
         through (§2.1), from the offload record's skip onwards. *)
      let skip = c.Csum_offload.skip_bytes in
      if skip > len then
        invalid_arg "Cab.sdma_chain: checksum skip beyond header";
      pkt.header_sum <- Inet_csum.of_slice pkt.buf ~off:skip ~len:(len - skip)

let validate_payload (pkt : Netmem.packet) ~src ~pkt_off =
  require_word_aligned "payload packet offset" pkt_off;
  let len =
    match src with
    | From_user region ->
        require_word_aligned "user source address" (Region.vaddr region);
        Region.length region
    | From_kernel { buf; off; len } ->
        if off < 0 || len < 0 || off + len > Bytes.length buf then
          invalid_arg "Cab.sdma_chain: kernel source window out of range";
        len
  in
  if pkt_off + len > Bytes.length pkt.buf then
    invalid_arg "Cab.sdma_chain: transfer past end of packet buffer";
  len

let commit_payload (pkt : Netmem.packet) ~src ~pkt_off ~len =
  Obs_ledger.touch Obs_ledger.Sdma_payload
    (match pkt.csum with None -> Obs_ledger.Copy | Some _ -> Obs_ledger.Copy_sum)
    len;
  match pkt.csum with
  | None -> (
      match src with
      | From_user region ->
          Region.blit_to_bytes region ~src_off:0 pkt.buf ~dst_off:pkt_off ~len
      | From_kernel { buf; off; _ } -> Bytes.blit buf off pkt.buf pkt_off len)
  | Some _ ->
      (* Fused copy + checksum, as in the hardware where the engine
         sums words on their way through.  Word alignment makes every
         segment offset even, so the body sums combine without
         byte-swapping. *)
      let seg =
        match src with
        | From_user region ->
            Region.blit_csum_to_bytes region ~src_off:0 pkt.buf
              ~dst_off:pkt_off ~len
        | From_kernel { buf; off; _ } ->
            Inet_csum.copy_and_sum ~src:buf ~src_off:off ~dst:pkt.buf
              ~dst_off:pkt_off ~len
      in
      pkt.body_sum <- Inet_csum.add pkt.body_sum seg

(* ---- chained SDMA ---- *)

(* Validate every segment of a chain; the chain's total bytes. *)
let rec validate_chain pkt total = function
  | [] -> total
  | Seg_header { len; _ } :: rest ->
      validate_header pkt ~len;
      validate_chain pkt (total + len) rest
  | Seg_payload { src; pkt_off; _ } :: rest ->
      validate_chain pkt (total + validate_payload pkt ~src ~pkt_off) rest

(* Commit the segments in list order. *)
let rec commit_chain pkt = function
  | [] -> ()
  | Seg_header { len; fill; csum } :: rest ->
      commit_header pkt ~len ~fill ~csum;
      commit_chain pkt rest
  | Seg_payload { src; pkt_off; on_seg_complete } :: rest ->
      let len = validate_payload pkt ~src ~pkt_off in
      commit_payload pkt ~src ~pkt_off ~len;
      (match on_seg_complete with Some f -> f () | None -> ());
      commit_chain pkt rest

let sdma_chain t (pkt : Netmem.packet) ~segs ~interrupt ~on_complete =
  match segs with
  | [] -> on_complete ()
  | _ ->
      (* One doorbell, one bus tenancy, one completion for the whole
         descriptor chain.  The engine start cost is paid once per
         doorbell: the engine walks the prebuilt descriptor list without
         re-arming between elements.  Every segment's bytes still pay
         full bus time — chaining merges scheduler events, host
         notifications, and the transfer setup, it does not shortcut
         the bus.  Segments commit in list order, so the header (which
         installs the checksum-offload record) must come first. *)
      let total = validate_chain pkt 0 segs in
      (* Retransmission (§4.3): a packet held for retransmit takes a
         fresh header (with a fresh seed) over the old one; the saved
         body sum is reused and the data is not touched. *)
      if pkt.state = Netmem.Held then begin
        (match segs with
        | [ Seg_header { len; _ } ] when len = pkt.hdr_len -> ()
        | _ ->
            invalid_arg
              "Cab.sdma_chain: a held packet takes one header segment of \
               its held length");
        pkt.state <- Netmem.Filling
      end;
      let duration = Memcost.bus_transfer t.profile total in
      pkt.sdma_pending <- pkt.sdma_pending + 1;
      t.s.sdma_chains <- t.s.sdma_chains + 1;
      if Fault.fire "cab.sdma_stall" then note_stall t pkt
      else begin
        Obs_trace.emit Obs_trace.Sdma_post ~a:total ~b:(List.length segs);
        let j = Resource.acquire t.bus duration in
        j.b_pkt <- pkt;
        j.b_segs <- segs;
        j.b_total <- total;
        j.b_interrupt <- interrupt;
        j.b_on_complete <- on_complete
      end

(* The bus finished the chain [j]. *)
let bus_finished t j =
  let pkt = j.b_pkt and segs = j.b_segs and interrupt = j.b_interrupt in
  let on_complete = j.b_on_complete in
  t.s.sdma_transfers <- t.s.sdma_transfers + List.length segs;
  t.s.sdma_bytes <- t.s.sdma_bytes + j.b_total;
  j.b_pkt <- Netmem.placeholder;
  j.b_segs <- [];
  j.b_on_complete <- ignore;
  commit_chain pkt segs;
  on_complete ();
  if interrupt then raise_intr t Sdma_done;
  sdma_finished t pkt

let mdma_send t (pkt : Netmem.packet) ~dst ~channel ~keep =
  Obs_trace.emit Obs_trace.Doorbell ~a:pkt.len ~b:pkt.sdma_pending;
  if pkt.sdma_pending = 0 then do_mdma t pkt ~dst ~channel ~keep
  else begin
    if pkt.mdma_queued then
      invalid_arg "Cab.mdma_send: packet already queued for media";
    pkt.mdma_queued <- true;
    pkt.mdma_dst <- dst;
    pkt.mdma_channel <- channel;
    pkt.mdma_keep <- keep
  end

let free t pkt = Netmem.free t.mem pkt

(* ---- receive ---- *)

let rx_csum_start = 4 * Hippi_framing.rx_csum_start_words

(* [deliver] consumes [frame]: it becomes the packet's network-memory
   buffer, or goes back to the shared pool when there is no room, so
   callers must not touch a frame after handing it over. *)
let deliver t frame =
  match Netmem.adopt t.mem frame with
  | exception Netmem.Exhausted ->
      t.s.rx_dropped <- t.s.rx_dropped + 1;
      Bufpool.put Bufpool.shared frame
  | pkt ->
      let len = pkt.len in
      t.s.rx_packets <- t.s.rx_packets + 1;
      t.s.rx_bytes <- t.s.rx_bytes + len;
      (* The receive checksum engine runs while the data streams off the
         media (§2.1), so the packet lands in network memory summed.  The
         ledger counts that engine pass here; the host computes the sum
         only where it is read ([rx_engine_sum]), and the frame is already
         the packet's buffer, so delivery touches no byte. *)
      if len > rx_csum_start then begin
        Obs_ledger.touch Obs_ledger.Rx_engine Obs_ledger.Copy rx_csum_start;
        Obs_ledger.touch Obs_ledger.Rx_engine Obs_ledger.Copy_sum
          (len - rx_csum_start)
      end
      else Obs_ledger.touch Obs_ledger.Rx_engine Obs_ledger.Copy len;
      (* Auto-DMA of the prefix, then the receive interrupt.  The bus
         transfer is charged here; [rx_head] is a window on the packet
         buffer ([rx_head_len] valid bytes) that the driver copies out of
         synchronously in the interrupt handler, before it can release
         the packet.  The engine's job is the event it will raise. *)
      let head_len = min (4 * t.autodma_words) len in
      let slot =
        Resource.acquire t.rx_dma (Memcost.bus_transfer t.profile head_len)
      in
      slot.ev <-
        Rx_packet
          {
            rx_pkt = pkt;
            rx_head = pkt.buf;
            rx_head_len = head_len;
            rx_total_len = len;
            rx_complete = len <= head_len;
          }

let rx_engine_sum info =
  let pkt = info.rx_pkt in
  if not pkt.Netmem.live then
    invalid_arg "Cab.rx_engine_sum: packet already freed";
  let len = info.rx_total_len in
  if len > rx_csum_start then
    Inet_csum.of_slice pkt.Netmem.buf ~off:rx_csum_start
      ~len:(len - rx_csum_start)
  else Inet_csum.zero

(* The auto-DMA engine landed the head of the packet whose event is in
   [slot]. *)
let autodma_finished t slot =
  let ev = slot.ev in
  slot.ev <- Sdma_done;
  (match ev with
  | Rx_packet info ->
      info.rx_pkt.state <- Netmem.Held;
      Obs_trace.emit Obs_trace.Rx_autodma ~a:info.rx_head_len
        ~b:info.rx_pkt.Netmem.id
  | Sdma_done -> ());
  (* Concurrency witness, arrival side: the copy-out engine is
     mid-transfer on an earlier packet while this one's auto-DMA/verify
     completes.  Copy-outs are much longer than the header auto-DMA, so
     most overlap is observed here; the mirror-image witness is in
     [copyout_finished]. *)
  if Resource.busy t.copyout then
    t.pipe.rx_pipe_overlap <- t.pipe.rx_pipe_overlap + 1;
  raise_intr t ev

let fill_copyout j ~pkt ~off ~len ~dst ~interrupt ~on_complete =
  j.c_pkt <- pkt;
  j.c_off <- off;
  j.c_len <- len;
  j.c_dst <- dst;
  j.c_interrupt <- interrupt;
  j.c_on_complete <- on_complete

(* Drop a copy-out job's references; read it first. *)
let clear_copyout j =
  j.c_pkt <- Netmem.placeholder;
  j.c_dst <- no_dest;
  j.c_on_complete <- ignore

let start_copyout t ~pkt ~off ~len ~dst ~interrupt ~on_complete =
  Obs_trace.emit Obs_trace.Rx_copyout ~a:len ~b:t.copyout_inflight;
  fill_copyout
    (Resource.acquire t.copyout (Memcost.bus_transfer t.profile len))
    ~pkt ~off ~len ~dst ~interrupt ~on_complete

(* One copy-out engine completion: free the descriptor slot and start the
   oldest parked post, if any. *)
let copyout_slot_free t =
  t.copyout_inflight <- t.copyout_inflight - 1;
  if Ring.length t.copyout_parked > 0 then begin
    let j = Ring.peek t.copyout_parked in
    t.copyout_inflight <- t.copyout_inflight + 1;
    start_copyout t ~pkt:j.c_pkt ~off:j.c_off ~len:j.c_len ~dst:j.c_dst
      ~interrupt:j.c_interrupt ~on_complete:j.c_on_complete;
    clear_copyout j;
    Ring.drop t.copyout_parked
  end

let copyout_finished t j =
  let pkt = j.c_pkt and off = j.c_off and len = j.c_len and dst = j.c_dst in
  let interrupt = j.c_interrupt and on_complete = j.c_on_complete in
  clear_copyout j;
  t.s.sdma_transfers <- t.s.sdma_transfers + 1;
  t.s.sdma_bytes <- t.s.sdma_bytes + len;
  (* Concurrency witness: the verify engine is mid-transfer on a later
     packet at the instant this copy-out completes. *)
  if Resource.busy t.rx_dma then
    t.pipe.rx_pipe_overlap <- t.pipe.rx_pipe_overlap + 1;
  Obs_ledger.touch Obs_ledger.Copyout Obs_ledger.Copy len;
  (match dst with
  | Netif.To_user region ->
      Region.blit_from_bytes pkt.buf ~src_off:off region ~dst_off:0 ~len
  | Netif.To_kernel (b, k_off) -> Bytes.blit pkt.buf off b k_off len);
  on_complete ();
  if interrupt then raise_intr t Sdma_done;
  sdma_finished t pkt;
  copyout_slot_free t

let sdma_copy_out t (pkt : Netmem.packet) ~off ~len ~dst ~interrupt
    ~on_complete =
  require_word_aligned "copy-out packet offset" off;
  if off + len > pkt.len then
    invalid_arg "Cab.sdma_copy_out: range past end of packet";
  (match dst with
  | Netif.To_user region ->
      require_word_aligned "user destination address" (Region.vaddr region);
      if Region.length region < len then
        invalid_arg "Cab.sdma_copy_out: destination region too small"
  | Netif.To_kernel (b, k_off) ->
      if k_off + len > Bytes.length b then
        invalid_arg "Cab.sdma_copy_out: kernel destination too small");
  (* Copy-outs ride the dedicated copy-out engine, not the tx SDMA
     channel, bounded by [rx_pipe_depth] outstanding descriptors; excess
     posts park FIFO and start as slots free up.  The stall fault keeps
     the semantics of [sdma_chain]: the post is accepted (holds its
     [sdma_pending] share) but never occupies the engine. *)
  pkt.sdma_pending <- pkt.sdma_pending + 1;
  if Fault.fire "cab.sdma_stall" then note_stall t pkt
  else begin
    t.pipe.rx_pipe_posts <- t.pipe.rx_pipe_posts + 1;
    if t.copyout_inflight >= rx_pipe_depth then begin
      t.pipe.rx_pipe_stalls <- t.pipe.rx_pipe_stalls + 1;
      fill_copyout (Ring.push t.copyout_parked) ~pkt ~off ~len ~dst
        ~interrupt ~on_complete
    end
    else begin
      t.copyout_inflight <- t.copyout_inflight + 1;
      if t.copyout_inflight > t.pipe.rx_pipe_hwm then
        t.pipe.rx_pipe_hwm <- t.copyout_inflight;
      start_copyout t ~pkt ~off ~len ~dst ~interrupt ~on_complete
    end
  end

let create ~sim ~profile ~name ~netmem_pages ~hippi_addr ~transmit () =
  let t = {
    sim;
    profile;
    name;
    mem = Netmem.create ~pages:netmem_pages;
    addr = hippi_addr;
    transmit;
    bus = Resource.create ~sim blank_bus_job;
    rx_dma = Resource.create ~sim blank_intr_slot;
    copyout = Resource.create ~sim blank_copyout_job;
    copyout_inflight = 0;
    copyout_parked = Ring.create blank_copyout_job;
    batch_handler =
      (fun _ _ -> invalid_arg (name ^ ": no interrupt handler installed"));
    pending_intrs = Ring.create blank_intr_slot;
    burst = Array.make intr_budget Sdma_done;
    intr_scheduled = false;
    intr_timer = Sim.timer sim ignore;
    (* 176 words: "the checksum is passed up the stack together with the
       first 176 words of the packet (data size of the mbuf)" — §4.3. *)
    autodma_words = 176;
    stalled = Hashtbl.create 8;
    s =
      {
        sdma_transfers = 0;
        sdma_bytes = 0;
        sdma_chains = 0;
        mdma_packets = 0;
        mdma_bytes = 0;
        rx_packets = 0;
        rx_bytes = 0;
        rx_dropped = 0;
        interrupts = 0;
        intr_events = 0;
        sdma_stalled = 0;
        intr_lost = 0;
        tx_recoveries = 0;
      };
    pipe =
      {
        rx_pipe_depth;
        rx_pipe_posts = 0;
        rx_pipe_hwm = 0;
        rx_pipe_overlap = 0;
        rx_pipe_stalls = 0;
      };
  }
  in
  Sim.set_fn t.intr_timer (fun () -> deliver_intrs t);
  Resource.set_finished t.bus (bus_finished t);
  Resource.set_finished t.rx_dma (autodma_finished t);
  Resource.set_finished t.copyout (copyout_finished t);
  register_obs t;
  t

(* ---- statistics ---- *)

let stats t = t.s

let rx_pipe_stats t = t.pipe

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "sdma %d xfers / %d B (%d chains); mdma %d pkts / %d B; rx %d pkts / %d \
     B (%d dropped); %d interrupt bursts / %d events; faults: %d stalls, %d \
     lost intrs, %d recoveries"
    s.sdma_transfers s.sdma_bytes s.sdma_chains s.mdma_packets s.mdma_bytes
    s.rx_packets s.rx_bytes s.rx_dropped s.interrupts s.intr_events
    s.sdma_stalled s.intr_lost s.tx_recoveries
