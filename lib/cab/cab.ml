type rx_info = {
  rx_pkt : Netmem.packet;
  rx_head : Bytes.t;
  rx_head_len : int;
  rx_total_len : int;
  rx_engine_sum : Inet_csum.sum;
  rx_complete : bool;
  rx_channel : int;
}

type intr = Sdma_done of int | Rx_packet of rx_info

type tx_src =
  | From_user of Region.t
  | From_kernel of Bytes.t
  | From_mbuf of { buf : Bytes.t; off : int; len : int }

type stats = {
  sdma_transfers : int;
  sdma_bytes : int;
  sdma_chains : int;
  mdma_packets : int;
  mdma_bytes : int;
  rx_packets : int;
  rx_bytes : int;
  rx_dropped : int;
  interrupts : int;
  intr_events : int;
  sdma_stalled : int;
  intr_lost : int;
  tx_recoveries : int;
}

type rx_pipe_stats = {
  rx_pipe_depth : int;
  rx_pipe_posts : int;
  rx_pipe_hwm : int;
  rx_pipe_overlap : int;
  rx_pipe_stalls : int;
}

type pending_mdma = { dst : int; channel : int; keep : bool }

type t = {
  sim : Sim.t;
  profile : Host_profile.t;
  name : string;
  mem : Netmem.t;
  addr : int;
  transmit : Bytes.t -> dst:int -> channel:int -> unit;
  bus : Resource.t;
  (* The receive side runs as a two-stage pipeline on two independent
     SDMA channels: [rx_dma] auto-DMAs each arriving packet's head prefix
     (the checksum-verify engine's completion event), while [copyout]
     moves queued tails to the host — so the copy-out of packet [n]
     overlaps the DMA+verify of packet [n+1] instead of serializing
     behind it on one channel. *)
  rx_dma : Resource.t;
  copyout : Resource.t;
  mutable rx_pipe_depth : int;
      (* descriptor slots on the copy-out engine: posts beyond this park
         in [copyout_parked] until a completion frees a slot *)
  mutable copyout_inflight : int;
  copyout_parked : (unit -> unit) Queue.t;
  mutable copyout_posts : int;
  mutable rx_pipe_stalls : int;
  mutable rx_pipe_overlap : int;
  mutable rx_pipe_hwm : int;
  mutable intr_handler : intr -> unit;
  mutable batch_handler : (intr list -> unit) option;
  pending_intrs : intr Event_queue.t;
      (* notifications waiting for the next delivery burst; an
         Event_queue so bursts drain in raise order via [pop_ready] *)
  mutable intr_scheduled : bool;
  intr_timer : Sim.handle;
      (* one reusable zero-delay timer drives every delivery burst, so
         raising an interrupt never allocates a closure *)
  mutable intr_budget : int;
  mutable autodma_words : int;
  mdma_waiting : (int, pending_mdma) Hashtbl.t;
  stalled : (int, int) Hashtbl.t;
      (* packet id -> injected-stall count: posts that were accepted but
         will never commit; the driver's watchdog reads this "status
         register" to distinguish stuck from slow *)
  (* statistics *)
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

(* Publish this adaptor's counters under ["cab.<name>"]; gauges read the
   live record, and re-creating an adaptor with the same name replaces the
   previous registration (the benchmarks build one testbed at a time). *)
let register_obs t =
  let section = "cab." ^ t.name in
  let g name f = Obs.gauge ~section ~name (fun () -> float_of_int (f ())) in
  g "sdma_transfers" (fun () -> t.sdma_transfers);
  g "sdma_bytes" (fun () -> t.sdma_bytes);
  g "sdma_chains" (fun () -> t.sdma_chains);
  g "mdma_packets" (fun () -> t.mdma_packets);
  g "mdma_bytes" (fun () -> t.mdma_bytes);
  g "rx_packets" (fun () -> t.rx_packets);
  g "rx_bytes" (fun () -> t.rx_bytes);
  g "rx_dropped" (fun () -> t.rx_dropped);
  g "interrupts" (fun () -> t.interrupts);
  g "intr_events" (fun () -> t.intr_events);
  g "sdma_stalled" (fun () -> t.sdma_stalled);
  g "intr_lost" (fun () -> t.intr_lost);
  g "tx_recoveries" (fun () -> t.tx_recoveries);
  (* Rx pipeline: copy-out engine occupancy and its overlap with the
     auto-DMA/verify engine. *)
  g "rx_pipe_depth" (fun () -> t.rx_pipe_depth);
  g "rx_pipe_posts" (fun () -> t.copyout_posts);
  g "rx_pipe_inflight" (fun () -> t.copyout_inflight);
  g "rx_pipe_hwm" (fun () -> t.rx_pipe_hwm);
  g "rx_pipe_overlap" (fun () -> t.rx_pipe_overlap);
  g "rx_pipe_stalls" (fun () -> t.rx_pipe_stalls);
  (* Outboard-memory occupancy: the soak harness's leak checks diff these
     against their pre-run baseline through the registry. *)
  g "netmem_in_use" (fun () -> Netmem.in_use t.mem);
  g "netmem_free_pages" (fun () -> Netmem.free_pages t.mem);
  g "netmem_failures" (fun () -> Netmem.failures t.mem)

(* NAPI-style coalesced notification delivery: completions and rx events
   queue up, and the host sees one delivery per burst — at most
   [intr_budget] events each — instead of one interrupt per packet.
   Delivery rides the adaptor's reusable zero-delay timer, so everything
   that became ready at this instant (e.g. the per-segment completions
   of a chained SDMA) lands in a single burst and scheduling the burst
   allocates nothing. *)
let deliver_intrs t =
  match
    Event_queue.pop_ready ~max:t.intr_budget t.pending_intrs
      ~now:(Sim.now t.sim)
  with
  | [] -> t.intr_scheduled <- false
  | evs ->
      t.interrupts <- t.interrupts + 1;
      let n_evs = List.length evs in
      t.intr_events <- t.intr_events + n_evs;
      Obs_trace.emit Obs_trace.Intr ~a:n_evs ~b:t.intr_budget;
      (match t.batch_handler with
      | Some f -> f evs
      | None -> List.iter t.intr_handler evs);
      if Event_queue.is_empty t.pending_intrs then t.intr_scheduled <- false
      else Sim.rearm t.sim t.intr_timer Simtime.zero

let create ~sim ~profile ~name ~netmem_pages ~hippi_addr ~transmit () =
  let t = {
    sim;
    profile;
    name;
    mem = Netmem.create ~pages:netmem_pages;
    addr = hippi_addr;
    transmit;
    bus = Resource.create ~sim ~name:(name ^ ".turbochannel");
    rx_dma = Resource.create ~sim ~name:(name ^ ".rx_dma");
    copyout = Resource.create ~sim ~name:(name ^ ".copyout");
    rx_pipe_depth = 4;
    copyout_inflight = 0;
    copyout_parked = Queue.create ();
    copyout_posts = 0;
    rx_pipe_stalls = 0;
    rx_pipe_overlap = 0;
    rx_pipe_hwm = 0;
    intr_handler =
      (fun _ -> invalid_arg (name ^ ": no interrupt handler installed"));
    batch_handler = None;
    pending_intrs = Event_queue.create ();
    intr_scheduled = false;
    intr_timer = Sim.timer sim ignore;
    intr_budget = 64;
    (* 176 words: "the checksum is passed up the stack together with the
       first 176 words of the packet (data size of the mbuf)" — §4.3. *)
    autodma_words = 176;
    mdma_waiting = Hashtbl.create 16;
    stalled = Hashtbl.create 8;
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
  }
  in
  Sim.set_fn t.intr_timer (fun () -> deliver_intrs t);
  register_obs t;
  t

let name t = t.name
let hippi_addr t = t.addr
let netmem t = t.mem
let sim t = t.sim
let profile t = t.profile

(* Latest installed handler wins, whichever flavour: a per-event handler
   displaces a batch handler and vice versa (apps like raw_hippi take the
   adaptor over from the driver by reinstalling). *)
let set_interrupt_handler t f =
  t.intr_handler <- f;
  t.batch_handler <- None

let set_batch_interrupt_handler t f = t.batch_handler <- Some f

let set_intr_budget t n =
  if n <= 0 then invalid_arg "Cab.set_intr_budget: must be positive";
  t.intr_budget <- n

let intr_budget t = t.intr_budget

let set_autodma_words t w =
  if w <= 0 then invalid_arg "Cab.set_autodma_words: must be positive";
  t.autodma_words <- w

let autodma_words t = t.autodma_words

let set_rx_pipe_depth t n =
  if n <= 0 then invalid_arg "Cab.set_rx_pipe_depth: must be positive";
  t.rx_pipe_depth <- n

let rx_pipe_depth t = t.rx_pipe_depth

let raise_intr t i =
  Event_queue.push t.pending_intrs ~time:(Sim.now t.sim) i;
  if not t.intr_scheduled then begin
    if Fault.fire "cab.lost_intr" then
      (* The interrupt line glitched: the event stays queued but nothing
         schedules its delivery.  The next raise (later traffic) or a
         watchdog [poll] drains it — [pop_ready] picks up everything that
         became ready at or before that instant. *)
      t.intr_lost <- t.intr_lost + 1
    else begin
      t.intr_scheduled <- true;
      Sim.rearm t.sim t.intr_timer Simtime.zero
    end
  end

let pending_events t = Event_queue.length t.pending_intrs

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

let do_mdma t (pkt : Netmem.packet) { dst; channel; keep } =
  finalize_csum pkt;
  (* The wire frame is a recycled buffer: [deliver] on the receiving
     adaptor consumes it and returns it to the pool once the data has
     been copied into network memory. *)
  let frame = Bufpool.get Bufpool.shared pkt.len in
  Bytes.blit pkt.buf 0 frame 0 pkt.len;
  Obs_ledger.touch Obs_ledger.Media Obs_ledger.Copy pkt.len;
  t.mdma_packets <- t.mdma_packets + 1;
  t.mdma_bytes <- t.mdma_bytes + pkt.len;
  t.transmit frame ~dst ~channel;
  if keep then pkt.state <- Netmem.Held
  else begin
    pkt.state <- Netmem.Ready;
    Netmem.free t.mem pkt
  end

let sdma_finished t (pkt : Netmem.packet) =
  pkt.sdma_pending <- pkt.sdma_pending - 1;
  if pkt.sdma_pending = 0 then
    match Hashtbl.find_opt t.mdma_waiting pkt.Netmem.id with
    | None -> ()
    | Some req ->
        Hashtbl.remove t.mdma_waiting pkt.Netmem.id;
        do_mdma t pkt req

(* Injected stuck descriptor: the post was accepted (it holds its
   [sdma_pending] share, so a queued MDMA keeps waiting) but it will
   never occupy the bus, commit, or complete. *)
let note_stall t (pkt : Netmem.packet) =
  t.sdma_stalled <- t.sdma_stalled + 1;
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
      t.tx_recoveries <- t.tx_recoveries + 1

(* Common SDMA machinery: occupy the TurboChannel, then apply [commit]
   (blit + checksum-engine update), then completion notifications.
   [stallable] marks the posts covered by the "cab.sdma_stall" fault site
   — the ones whose callers run a completion-timeout watchdog. *)
let sdma ?(stallable = false) t (pkt : Netmem.packet) ~bytes ~cookie
    ~interrupt ~on_complete commit =
  pkt.sdma_pending <- pkt.sdma_pending + 1;
  if stallable && Fault.fire "cab.sdma_stall" then note_stall t pkt
  else begin
    Obs_trace.emit Obs_trace.Sdma_post ~a:bytes ~b:1;
    let duration = Memcost.bus_transfer t.profile bytes in
    Resource.acquire t.bus duration (fun () ->
        t.sdma_transfers <- t.sdma_transfers + 1;
        t.sdma_bytes <- t.sdma_bytes + bytes;
        commit ();
        (match on_complete with Some f -> f () | None -> ());
        if interrupt then raise_intr t (Sdma_done cookie);
        sdma_finished t pkt)
  end

(* Validation happens at post time (the caller's bug surfaces where it was
   made); the commit closures run when the bus transfer completes. *)

let validate_header (pkt : Netmem.packet) ~len =
  require_word_aligned "header length" len;
  if len > Bytes.length pkt.buf then
    invalid_arg "Cab.sdma_header: header larger than packet buffer"

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
        invalid_arg "Cab.sdma_header: checksum skip beyond header";
      pkt.header_sum <- Inet_csum.of_bytes ~off:skip ~len:(len - skip) pkt.buf

let blit_header header buf = Bytes.blit header 0 buf 0 (Bytes.length header)

let validate_payload (pkt : Netmem.packet) ~src ~pkt_off =
  require_word_aligned "payload packet offset" pkt_off;
  let len =
    match src with
    | From_user region ->
        require_word_aligned "user source address" (Region.vaddr region);
        Region.length region
    | From_kernel b -> Bytes.length b
    | From_mbuf { buf; off; len } ->
        if off < 0 || len < 0 || off + len > Bytes.length buf then
          invalid_arg "Cab.sdma_payload: mbuf source window out of range";
        len
  in
  if pkt_off + len > Bytes.length pkt.buf then
    invalid_arg "Cab.sdma_payload: transfer past end of packet buffer";
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
      | From_kernel b -> Bytes.blit b 0 pkt.buf pkt_off len
      | From_mbuf { buf; off; _ } -> Bytes.blit buf off pkt.buf pkt_off len)
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
        | From_kernel b ->
            Inet_csum.copy_and_sum ~src:b ~src_off:0 ~dst:pkt.buf
              ~dst_off:pkt_off ~len
        | From_mbuf { buf; off; _ } ->
            Inet_csum.copy_and_sum ~src:buf ~src_off:off ~dst:pkt.buf
              ~dst_off:pkt_off ~len
      in
      pkt.body_sum <- Inet_csum.add pkt.body_sum seg

let sdma_header t (pkt : Netmem.packet) ~header ~csum ?(cookie = 0)
    ?(interrupt = false) ?on_complete () =
  let len = Bytes.length header in
  validate_header pkt ~len;
  sdma t pkt ~bytes:len ~cookie ~interrupt ~on_complete (fun () ->
      commit_header pkt ~len ~fill:(blit_header header) ~csum)

let sdma_payload t (pkt : Netmem.packet) ~src ~pkt_off ?(cookie = 0)
    ?(interrupt = false) ?on_complete () =
  let len = validate_payload pkt ~src ~pkt_off in
  sdma t pkt ~bytes:len ~cookie ~interrupt ~on_complete (fun () ->
      commit_payload pkt ~src ~pkt_off ~len)

(* ---- chained SDMA ---- *)

type chain_seg =
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

let sdma_chain t (pkt : Netmem.packet) ~segs ?(cookie = 0)
    ?(interrupt = false) ?on_complete () =
  match segs with
  | [] -> ( match on_complete with Some f -> f () | None -> ())
  | _ ->
      (* One doorbell, one bus tenancy, one completion for the whole
         descriptor chain.  The engine start cost is paid once per
         doorbell: the engine walks the prebuilt descriptor list without
         re-arming between elements.  Every segment's bytes still pay
         full bus time — chaining merges scheduler events, host
         notifications, and the transfer setup, it does not shortcut
         the bus.  Segments commit in list order, so the header (which
         installs the checksum-offload record) must come first. *)
      let total = ref 0 in
      List.iter
        (fun seg ->
          let len =
            match seg with
            | Seg_header { len; _ } ->
                validate_header pkt ~len;
                len
            | Seg_payload { src; pkt_off; _ } ->
                validate_payload pkt ~src ~pkt_off
          in
          total := !total + len)
        segs;
      let duration = Memcost.bus_transfer t.profile !total in
      pkt.sdma_pending <- pkt.sdma_pending + 1;
      t.sdma_chains <- t.sdma_chains + 1;
      if Fault.fire "cab.sdma_stall" then note_stall t pkt
      else begin
      Obs_trace.emit Obs_trace.Sdma_post ~a:!total ~b:(List.length segs);
      Resource.acquire t.bus duration (fun () ->
          t.sdma_transfers <- t.sdma_transfers + List.length segs;
          t.sdma_bytes <- t.sdma_bytes + !total;
          List.iter
            (fun seg ->
              match seg with
              | Seg_header { len; fill; csum } ->
                  commit_header pkt ~len ~fill ~csum
              | Seg_payload { src; pkt_off; on_seg_complete } ->
                  let len = validate_payload pkt ~src ~pkt_off in
                  commit_payload pkt ~src ~pkt_off ~len;
                  (match on_seg_complete with Some f -> f () | None -> ()))
            segs;
          (match on_complete with Some f -> f () | None -> ());
          if interrupt then raise_intr t (Sdma_done cookie);
          sdma_finished t pkt)
      end

let tx_rewrite_header t (pkt : Netmem.packet) ~header ~csum ?(cookie = 0)
    ?(interrupt = false) ?on_complete () =
  let len = Bytes.length header in
  require_word_aligned "header length" len;
  if pkt.state <> Netmem.Held then
    invalid_arg "Cab.tx_rewrite_header: packet is not held for retransmit";
  if len <> pkt.hdr_len then
    invalid_arg "Cab.tx_rewrite_header: header length changed";
  pkt.state <- Netmem.Filling;
  sdma t pkt ~bytes:len ~cookie ~interrupt ~on_complete (fun () ->
      commit_header pkt ~len ~fill:(blit_header header) ~csum)

let mdma_send t (pkt : Netmem.packet) ~dst ~channel ~keep =
  Obs_trace.emit Obs_trace.Doorbell ~a:pkt.len ~b:pkt.sdma_pending;
  let req = { dst; channel; keep } in
  if pkt.sdma_pending = 0 then do_mdma t pkt req
  else begin
    if Hashtbl.mem t.mdma_waiting pkt.Netmem.id then
      invalid_arg "Cab.mdma_send: packet already queued for media";
    Hashtbl.replace t.mdma_waiting pkt.Netmem.id req
  end

let tx_free t pkt = Netmem.free t.mem pkt

(* ---- receive ---- *)

let rx_csum_start = 4 * Hippi_framing.rx_csum_start_words

(* [deliver] consumes [frame]: once the bytes are in network memory the
   buffer goes back to the shared pool, so callers must not touch a frame
   after handing it over. *)
let deliver t frame =
  let len = Bytes.length frame in
  match Netmem.alloc t.mem ~len ~state:Netmem.Receiving with
  | None ->
      t.rx_dropped <- t.rx_dropped + 1;
      Bufpool.put Bufpool.shared frame
  | Some pkt ->
      t.rx_packets <- t.rx_packets + 1;
      t.rx_bytes <- t.rx_bytes + len;
      (* The receive checksum engine ran while the data streamed off the
         media (§2.1): the sum is ready with the packet.  One fused pass
         copies the frame into network memory and produces the sum. *)
      let engine_sum =
        if len > rx_csum_start then begin
          Obs_ledger.touch Obs_ledger.Rx_engine Obs_ledger.Copy rx_csum_start;
          Obs_ledger.touch Obs_ledger.Rx_engine Obs_ledger.Copy_sum
            (len - rx_csum_start);
          Bytes.blit frame 0 pkt.buf 0 rx_csum_start;
          Inet_csum.copy_and_sum ~src:frame ~src_off:rx_csum_start
            ~dst:pkt.buf ~dst_off:rx_csum_start ~len:(len - rx_csum_start)
        end
        else begin
          Obs_ledger.touch Obs_ledger.Rx_engine Obs_ledger.Copy len;
          Bytes.blit frame 0 pkt.buf 0 len;
          Inet_csum.zero
        end
      in
      pkt.body_sum <- engine_sum;
      Bufpool.put Bufpool.shared frame;
      let channel =
        match Hippi_framing.decode pkt.buf ~off:0 with
        | Ok h -> h.Hippi_framing.channel
        | Error _ -> 0
      in
      let head_len = min (4 * t.autodma_words) len in
      let complete = len <= head_len in
      (* Auto-DMA of the prefix, then the receive interrupt.  The bus
         transfer is charged here; [rx_head] is a window on the packet
         buffer ([rx_head_len] valid bytes) that the driver copies out of
         synchronously in the interrupt handler, before it can release
         the packet. *)
      let duration = Memcost.bus_transfer t.profile head_len in
      Resource.acquire t.rx_dma duration (fun () ->
          pkt.state <- Netmem.Held;
          (* Concurrency witness, arrival side: the copy-out engine is
             mid-transfer on an earlier packet while this one's
             auto-DMA/verify completes.  Copy-outs are much longer than
             the header auto-DMA, so most overlap is observed here; the
             mirror-image witness is in [sdma_copy_out]. *)
          if Resource.busy t.copyout then
            t.rx_pipe_overlap <- t.rx_pipe_overlap + 1;
          Obs_trace.emit Obs_trace.Rx_autodma ~a:head_len ~b:pkt.Netmem.id;
          raise_intr t
            (Rx_packet
               {
                 rx_pkt = pkt;
                 rx_head = pkt.buf;
                 rx_head_len = head_len;
                 rx_total_len = len;
                 rx_engine_sum = engine_sum;
                 rx_complete = complete;
                 rx_channel = channel;
               }))

(* One copy-out engine completion: free the descriptor slot and start the
   oldest parked post, if any. *)
let copyout_slot_free t =
  t.copyout_inflight <- t.copyout_inflight - 1;
  if not (Queue.is_empty t.copyout_parked) then begin
    let start = Queue.pop t.copyout_parked in
    t.copyout_inflight <- t.copyout_inflight + 1;
    start ()
  end

let sdma_copy_out t (pkt : Netmem.packet) ~off ~len ~dst ?(cookie = 0)
    ?(interrupt = false) ?on_complete () =
  require_word_aligned "copy-out packet offset" off;
  if off + len > pkt.len then
    invalid_arg "Cab.sdma_copy_out: range past end of packet";
  (match dst with
  | Netif.To_user (_, region) ->
      require_word_aligned "user destination address" (Region.vaddr region);
      if Region.length region < len then
        invalid_arg "Cab.sdma_copy_out: destination region too small"
  | Netif.To_kernel (b, k_off) ->
      if k_off + len > Bytes.length b then
        invalid_arg "Cab.sdma_copy_out: kernel destination too small");
  let commit () =
    Obs_ledger.touch Obs_ledger.Copyout Obs_ledger.Copy len;
    match dst with
    | Netif.To_user (_, region) ->
        Region.blit_from_bytes pkt.buf ~src_off:off region ~dst_off:0 ~len
    | Netif.To_kernel (b, k_off) -> Bytes.blit pkt.buf off b k_off len
  in
  (* Copy-outs ride the dedicated copy-out engine, not the tx SDMA
     channel, bounded by [rx_pipe_depth] outstanding descriptors; excess
     posts park FIFO and start as slots free up.  The stall fault keeps
     the semantics of [sdma]: the post is accepted (holds its
     [sdma_pending] share) but never occupies the engine. *)
  pkt.sdma_pending <- pkt.sdma_pending + 1;
  if Fault.fire "cab.sdma_stall" then note_stall t pkt
  else begin
    t.copyout_posts <- t.copyout_posts + 1;
    let start () =
      Obs_trace.emit Obs_trace.Rx_copyout ~a:len ~b:t.copyout_inflight;
      let duration = Memcost.bus_transfer t.profile len in
      Resource.acquire t.copyout duration (fun () ->
          t.sdma_transfers <- t.sdma_transfers + 1;
          t.sdma_bytes <- t.sdma_bytes + len;
          (* Concurrency witness: the verify engine is mid-transfer on a
             later packet at the instant this copy-out completes. *)
          if Resource.busy t.rx_dma then
            t.rx_pipe_overlap <- t.rx_pipe_overlap + 1;
          commit ();
          (match on_complete with Some f -> f () | None -> ());
          if interrupt then raise_intr t (Sdma_done cookie);
          sdma_finished t pkt;
          copyout_slot_free t)
    in
    if t.copyout_inflight >= t.rx_pipe_depth then begin
      t.rx_pipe_stalls <- t.rx_pipe_stalls + 1;
      Queue.push start t.copyout_parked
    end
    else begin
      t.copyout_inflight <- t.copyout_inflight + 1;
      if t.copyout_inflight > t.rx_pipe_hwm then
        t.rx_pipe_hwm <- t.copyout_inflight;
      start ()
    end
  end

let rx_free t pkt = Netmem.free t.mem pkt

(* ---- statistics ---- *)

let stats t =
  {
    sdma_transfers = t.sdma_transfers;
    sdma_bytes = t.sdma_bytes;
    sdma_chains = t.sdma_chains;
    mdma_packets = t.mdma_packets;
    mdma_bytes = t.mdma_bytes;
    rx_packets = t.rx_packets;
    rx_bytes = t.rx_bytes;
    rx_dropped = t.rx_dropped;
    interrupts = t.interrupts;
    intr_events = t.intr_events;
    sdma_stalled = t.sdma_stalled;
    intr_lost = t.intr_lost;
    tx_recoveries = t.tx_recoveries;
  }

let bus_busy_time t = Resource.busy_time t.bus
let rx_dma_busy_time t = Resource.busy_time t.rx_dma
let copyout_busy_time t = Resource.busy_time t.copyout

let rx_pipe_stats t =
  {
    rx_pipe_depth = t.rx_pipe_depth;
    rx_pipe_posts = t.copyout_posts;
    rx_pipe_hwm = t.rx_pipe_hwm;
    rx_pipe_overlap = t.rx_pipe_overlap;
    rx_pipe_stalls = t.rx_pipe_stalls;
  }


let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "sdma %d xfers / %d B (%d chains); mdma %d pkts / %d B; rx %d pkts / %d \
     B (%d dropped); %d interrupt bursts / %d events; faults: %d stalls, %d \
     lost intrs, %d recoveries"
    s.sdma_transfers s.sdma_bytes s.sdma_chains s.mdma_packets s.mdma_bytes
    s.rx_packets s.rx_bytes s.rx_dropped s.interrupts s.intr_events
    s.sdma_stalled s.intr_lost s.tx_recoveries
