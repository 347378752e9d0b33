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
}

exception Double_free of int

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
  live_ids : (int, int) Hashtbl.t;  (* packet id -> pages *)
}

let create ~pages =
  if pages <= 0 then invalid_arg "Netmem.create: pages";
  {
    capacity = pages;
    used = 0;
    next_id = 0;
    failures = 0;
    live_ids = Hashtbl.create 64;
  }

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
    None
  end
  else if t.used + pages > t.capacity then begin
    t.failures <- t.failures + 1;
    None
  end
  else begin
    t.used <- t.used + pages;
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.replace t.live_ids id pages;
    Some
      {
        id;
        (* Page-granular buffers recycle perfectly by exact size; the
           producer (SDMA / frame copy-in) overwrites [0, len) before any
           byte is read, so stale contents are harmless. *)
        buf = Bufpool.get Bufpool.shared (pages * Page.cab_page_size);
        len;
        hdr_len = 0;
        header_sum = Inet_csum.zero;
        body_sum = Inet_csum.zero;
        csum = None;
        state;
        sdma_pending = 0;
        pages;
      }
  end

let free t pkt =
  if not (Hashtbl.mem t.live_ids pkt.id) then begin
    Obs.Counter.incr agg_double_frees;
    raise (Double_free pkt.id)
  end;
  Hashtbl.remove t.live_ids pkt.id;
  t.used <- t.used - pkt.pages;
  Bufpool.put Bufpool.shared pkt.buf

let capacity_pages t = t.capacity
let free_pages t = t.capacity - t.used
let in_use t = Hashtbl.length t.live_ids
let failures t = t.failures
