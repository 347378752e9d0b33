type state = Filling | Ready | Receiving | Held

type packet = {
  id : int;
  buf : Bytes.t;
  mutable len : int;
  mutable hdr_len : int;
  mutable header_sum : Inet_csum.sum;
  mutable body_sum : Inet_csum.sum;
  mutable csum : Csum_offload.tx option;
  mutable state : state;
  mutable sdma_pending : int;
  pages : int;
  mutable live : bool;
  mutable mdma_queued : bool;
  mutable mdma_dst : int;
  mutable mdma_channel : int;
  mutable mdma_keep : bool;
}

exception Double_free of int
exception Exhausted

(* Process-wide aggregates: netmem instances are per-adaptor, but the
   soak harness checks these via one registry lookup. *)
let agg_double_frees = Obs.counter ~section:"netmem" ~name:"double_frees"

let agg_injected_exhaustions =
  Obs.counter ~section:"netmem" ~name:"injected_exhaustions"

type t = {
  capacity : int;
  mutable used : int;
  mutable next_id : int;
  mutable failures : int;
  mutable live_count : int;
}

let create ~pages =
  if pages <= 0 then invalid_arg "Netmem.create: pages";
  { capacity = pages; used = 0; next_id = 0; failures = 0; live_count = 0 }

let make_packet ~id ~buf ~len ~state ~pages ~live =
  {
    id;
    buf;
    len;
    hdr_len = 0;
    header_sum = Inet_csum.zero;
    body_sum = Inet_csum.zero;
    csum = None;
    state;
    sdma_pending = 0;
    pages;
    live;
    mdma_queued = false;
    mdma_dst = 0;
    mdma_channel = 0;
    mdma_keep = false;
  }

let placeholder =
  make_packet ~id:(-1) ~buf:Bytes.empty ~len:0 ~state:Ready ~pages:0
    ~live:false

(* Host buffers come in multiples of [buf_class] bytes, at least one. *)
let buf_class = 64
let buf_len len = (max 1 len + buf_class - 1) / buf_class * buf_class

let alloc t ~len ~state =
  if len < 0 then invalid_arg "Netmem.alloc: negative length";
  let pages =
    max 1 ((len + Page.cab_page_size - 1) / Page.cab_page_size)
  in
  if Fault.fire "netmem.exhaust" then begin
    (* Injected exhaustion episode: same observable outcome as a real
       out-of-pages condition, so callers' degradation paths run. *)
    t.failures <- t.failures + 1;
    Obs.Counter.incr agg_injected_exhaustions;
    raise Exhausted
  end
  else if t.used + pages > t.capacity then begin
    t.failures <- t.failures + 1;
    raise Exhausted
  end
  else begin
    t.used <- t.used + pages;
    t.live_count <- t.live_count + 1;
    let id = t.next_id in
    t.next_id <- id + 1;
    (* Pages are the unit of accounting, not of host storage: the
       buffer is the packet's own length rounded up to a [buf_class]
       size class, so a 60-byte ACK does not hold a 4 KByte buffer.  The
       producer (SDMA / frame copy-in) overwrites [0, len) before any
       byte is read, so a recycled buffer's stale contents are harmless. *)
    let buf = Bufpool.get Bufpool.shared (buf_len len) in
    make_packet ~id ~buf ~len ~state ~pages ~live:true
  end

let free t pkt =
  if not pkt.live then begin
    Obs.Counter.incr agg_double_frees;
    raise (Double_free pkt.id)
  end;
  pkt.live <- false;
  t.live_count <- t.live_count - 1;
  t.used <- t.used - pkt.pages;
  Bufpool.put Bufpool.shared pkt.buf

let capacity_pages t = t.capacity
let free_pages t = t.capacity - t.used
let in_use t = t.live_count
let failures t = t.failures
