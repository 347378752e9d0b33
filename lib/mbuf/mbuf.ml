exception Outboard_data

type notify = {
  mutable dma_pending : int;
  mutable on_drained : unit -> unit;
}

let make_notify () = { dma_pending = 0; on_drained = (fun () -> ()) }

let notify_add n k =
  if k < 0 then invalid_arg "Mbuf.notify_add: negative";
  n.dma_pending <- n.dma_pending + k

let notify_complete_n n k =
  if k < 0 then invalid_arg "Mbuf.notify_complete_n: negative";
  if n.dma_pending > 0 && k > 0 then begin
    n.dma_pending <- max 0 (n.dma_pending - k);
    if n.dma_pending = 0 then n.on_drained ()
  end

type wcab_desc = {
  wcab_id : int;
  wcab_bytes : Bytes.t;
  wcab_base : int;
  wcab_valid : int;
  wcab_free : unit -> unit;
  wcab_refs : int ref;
}

(* Internal and cluster buffers are refcounted cells so that (a) shared
   cluster storage ([copy_range]/[split]) is returned to the free list
   only when the last reference drops, and (b) a driver can hold the
   bytes across an asynchronous DMA capture ([retain_storage]) without
   the pool recycling them underneath the transfer. *)
type cell = { cbuf : Bytes.t; mutable refs : int }

type storage =
  | Internal of cell
  | Cluster of cell
  | Ext_uio of Region.t
  | Ext_wcab of wcab_desc

type pkthdr = {
  mutable pkt_len : int;
  mutable rcvif : string option;
  mutable rx_csum : Csum_offload.rx option;
  mutable tx_csum : Csum_offload.tx option;
  mutable on_outboard : (wcab_desc -> unit) option;
}

type t = {
  mutable storage : storage;
  mutable off : int;
  mutable len : int;
  mutable next : t option;
  mutable pkthdr : pkthdr option;
  mutable notify : notify option;
}

let msize = 256
let mclbytes = 2048

(* ---- storage pool ---- *)

(* Free lists of recycled internal/cluster cells.  [get]/[put] keep the
   steady-state datapath allocation-free: a released buffer goes back on
   its free list and the next construction pops it instead of calling
   [Bytes.create].  Only exactly-[msize]/[mclbytes] cells live here;
   odd-sized buffers are recycled through [Bufpool.shared] instead
   ([cell_create]/[cell_release]). *)
module Pool = struct
  let max_small = 512
  let max_clusters = 1024

  let live = ref 0
  let live_clusters = ref 0
  let hwm_live = ref 0
  let hwm_cl = ref 0

  let allocs = ref 0
  let hits = ref 0
  let misses = ref 0
  let recycled = ref 0

  (* Free-lists as preallocated stacks: [put]/[get] in steady state touch
     one array slot and a counter — no list cons, nothing for the GC.
     Slots above the stack pointer hold [dummy] so popped cells do not
     linger reachable. *)
  let dummy = { cbuf = Bytes.create 0; refs = 0 }
  let small_stack = Array.make max_small dummy
  let nsmall = ref 0
  let cluster_stack = Array.make max_clusters dummy
  let nclusters = ref 0

  let allocated () = !live
  let clusters () = !live_clusters
  let total_allocs () = !allocs
  let hit_count () = !hits
  let miss_count () = !misses
  let recycled_count () = !recycled
  let free_small () = !nsmall
  let free_clusters () = !nclusters
  let hwm () = !hwm_live
  let hwm_clusters () = !hwm_cl

  let hit_rate () =
    let h = !hits and m = !misses in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

  let reset () =
    live := 0;
    live_clusters := 0;
    hwm_live := 0;
    hwm_cl := 0;
    allocs := 0;
    hits := 0;
    misses := 0;
    recycled := 0

  let note_alloc storage =
    incr live;
    if !live > !hwm_live then hwm_live := !live;
    match storage with
    | Cluster _ ->
        incr live_clusters;
        if !live_clusters > !hwm_cl then hwm_cl := !live_clusters
    | _ -> ()

  let note_free storage =
    decr live;
    match storage with Cluster _ -> decr live_clusters | _ -> ()

  let get_small () =
    if !nsmall > 0 then begin
      decr nsmall;
      let c = small_stack.(!nsmall) in
      small_stack.(!nsmall) <- dummy;
      incr hits;
      c.refs <- 1;
      c
    end
    else begin
      incr misses;
      incr allocs;
      { cbuf = Bytes.create msize; refs = 1 }
    end

  let get_cluster () =
    if !nclusters > 0 then begin
      decr nclusters;
      let c = cluster_stack.(!nclusters) in
      cluster_stack.(!nclusters) <- dummy;
      incr hits;
      c.refs <- 1;
      c
    end
    else begin
      incr misses;
      incr allocs;
      { cbuf = Bytes.create mclbytes; refs = 1 }
    end

  let put c =
    let n = Bytes.length c.cbuf in
    if n = msize && !nsmall < max_small then begin
      small_stack.(!nsmall) <- c;
      incr nsmall;
      incr recycled
    end
    else if n = mclbytes && !nclusters < max_clusters then begin
      cluster_stack.(!nclusters) <- c;
      incr nclusters;
      incr recycled
    end
end

let cell_retain c = c.refs <- c.refs + 1

(* Odd-sized cells (oversize heads, contiguous receive tails) are drawn
   from [Bufpool.shared], keyed by exact size, and go back to it on
   release; exactly-[msize]/[mclbytes] cells belong to the mbuf pool. *)
let cell_release c =
  if c.refs > 0 then begin
    c.refs <- c.refs - 1;
    if c.refs = 0 then begin
      let n = Bytes.length c.cbuf in
      if n = msize || n = mclbytes then Pool.put c
      else Bufpool.put Bufpool.shared c.cbuf
    end
  end

let cell_create n =
  if n = msize then Pool.get_small ()
  else if n = mclbytes then Pool.get_cluster ()
  else { cbuf = Bufpool.get Bufpool.shared n; refs = 1 }

(* ---- construction ---- *)

let mk ?(pkthdr = false) storage ~off ~len =
  Pool.note_alloc storage;
  {
    storage;
    off;
    len;
    next = None;
    pkthdr =
      (if pkthdr then
         Some
           {
             pkt_len = len;
             rcvif = None;
             rx_csum = None;
             tx_csum = None;
             on_outboard = None;
           }
       else None);
    notify = None;
  }

let rec chain_len m =
  m.len + match m.next with None -> 0 | Some n -> chain_len n

let fix_pkthdr m =
  match m.pkthdr with
  | None -> ()
  | Some h -> h.pkt_len <- chain_len m

(* The mbuf holding chain bytes [pos, pos + seg) of a [total]-byte
   chain, filled by [blit src (off + pos) dst seg], with the rest linked
   after it. *)
let rec build_from blit src ~off pos total =
  let seg = min mclbytes (total - pos) in
  let cell = if seg <= msize then Pool.get_small () else Pool.get_cluster () in
  blit src (off + pos) cell.cbuf seg;
  let m =
    mk (if seg <= msize then Internal cell else Cluster cell) ~off:0 ~len:seg
  in
  if pos + seg < total then
    m.next <- Some (build_from blit src ~off (pos + seg) total);
  m

(* Shared chain builder: a chain of [total] bytes read from [src] at
   [off] through [blit] (one empty internal mbuf when [total] is 0).
   Callers pass a [blit] that captures nothing, so a build allocates the
   mbufs, their links and the packet header, and nothing else. *)
let build_chain ~pkthdr ~total blit src ~off =
  let head =
    if total = 0 then mk (Internal (Pool.get_small ())) ~off:0 ~len:0
    else build_from blit src ~off 0 total
  in
  if pkthdr then
    head.pkthdr <-
      Some
        {
          pkt_len = total;
          rcvif = None;
          rx_csum = None;
          tx_csum = None;
          on_outboard = None;
        };
  head

let of_bytes ?(pkthdr = false) ?(off = 0) ?len src =
  let len = match len with Some l -> l | None -> Bytes.length src - off in
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Mbuf.of_bytes: range out of bounds";
  build_chain ~pkthdr ~total:len
    (fun src pos dst seg -> Bytes.blit src pos dst 0 seg)
    src ~off

let of_string ?(pkthdr = false) s =
  (* Blit straight from the string into the chain storage: no intermediate
     [Bytes.of_string] copy. *)
  build_chain ~pkthdr ~total:(String.length s)
    (fun s pos dst seg -> Bytes.blit_string s pos dst 0 seg)
    s ~off:0

let of_region region ~off ~len =
  if off < 0 || len < 0 || off + len > Region.length region then
    invalid_arg "Mbuf.of_region: range out of bounds";
  build_chain ~pkthdr:true ~total:len
    (fun region pos dst seg ->
      Region.blit_to_bytes region ~src_off:pos dst ~dst_off:0 ~len:seg)
    region ~off

let contiguous n =
  if n < 0 then invalid_arg "Mbuf.contiguous: negative";
  let c = cell_create n in
  (mk (Cluster c) ~off:0 ~len:n, c.cbuf)

let alloc ?(pkthdr = false) n =
  if n < 0 then invalid_arg "Mbuf.alloc: negative";
  (* Recycled cells hold stale data: [alloc] promises zeroed storage. *)
  build_chain ~pkthdr ~total:n
    (fun () _pos dst seg -> Bytes.fill dst 0 seg '\000')
    () ~off:0

let make_uio ~region ~notify =
  let m =
    mk ~pkthdr:true (Ext_uio region) ~off:0 ~len:(Region.length region)
  in
  m.notify <- notify;
  m

let make_wcab ~desc ~len =
  if len < 0 || desc.wcab_base + len > Bytes.length desc.wcab_bytes then
    invalid_arg "Mbuf.make_wcab: length out of range";
  mk ~pkthdr:true (Ext_wcab desc) ~off:0 ~len

(* ---- inspection ---- *)

type kind = K_internal | K_cluster | K_uio | K_wcab

let kind m =
  match m.storage with
  | Internal _ -> K_internal
  | Cluster _ -> K_cluster
  | Ext_uio _ -> K_uio
  | Ext_wcab _ -> K_wcab

let is_descriptor m =
  match kind m with K_uio | K_wcab -> true | K_internal | K_cluster -> false

let pkt_len m =
  match m.pkthdr with
  | Some h -> h.pkt_len
  | None -> invalid_arg "Mbuf.pkt_len: no packet header"

let has_pkthdr m = m.pkthdr <> None

let set_rcvif m ifname =
  match m.pkthdr with
  | Some h -> h.rcvif <- Some ifname
  | None -> invalid_arg "Mbuf.set_rcvif: no packet header"

let rcvif m = match m.pkthdr with Some h -> h.rcvif | None -> None

let rec iter f m =
  f m;
  match m.next with None -> () | Some n -> iter f n

let rec fold f acc m =
  let acc = f acc m in
  match m.next with None -> acc | Some n -> fold f acc n

let chain_kinds m = List.rev (fold (fun acc m -> kind m :: acc) [] m)

let storage_capacity = function
  | Internal c | Cluster c -> Bytes.length c.cbuf
  | Ext_uio r -> Region.length r
  | Ext_wcab d -> Bytes.length d.wcab_bytes - d.wcab_base

let check_invariants m =
  let problems = ref [] in
  let add p = problems := p :: !problems in
  iter
    (fun mb ->
      if mb.len < 0 then add "negative length";
      if mb.off < 0 then add "negative offset";
      if mb.off + mb.len > storage_capacity mb.storage then
        add "data extends past storage";
      if mb != m && mb.pkthdr <> None then add "pkthdr on non-head mbuf")
    m;
  (match m.pkthdr with
  | Some h when h.pkt_len <> chain_len m ->
      add
        (Printf.sprintf "pkthdr len %d <> chain len %d" h.pkt_len
           (chain_len m))
  | Some _ | None -> ());
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))

(* ---- data access ---- *)

(* Applies [f buf buf_off seg_len chain_off] for each storage segment
   overlapping [off, off+len).  Raises [Outboard_data] on WCAB storage. *)
let iter_segments m ~off ~len f =
  if off < 0 || len < 0 then invalid_arg "Mbuf: negative range";
  let rec go m pos remaining =
    if remaining > 0 then
      match m with
      | None -> invalid_arg "Mbuf: range past end of chain"
      | Some mb ->
          let skip = max 0 (off - pos) in
          if skip >= mb.len then go mb.next (pos + mb.len) remaining
          else begin
            let seg = min (mb.len - skip) remaining in
            (match mb.storage with
            | Internal c | Cluster c ->
                f c.cbuf (mb.off + skip) seg (off + len - remaining)
            | Ext_uio r ->
                (* Reading through to user memory: allowed (it is host
                   memory); the caller charges the cost.  Zero-copy: hand
                   out the region's backing store directly rather than
                   materializing a [Bytes.sub] of it per segment. *)
                let ubuf, upos = Region.backing r in
                f ubuf (upos + mb.off + skip) seg (off + len - remaining)
            | Ext_wcab _ -> raise Outboard_data);
            go mb.next (pos + mb.len) (remaining - seg)
          end
  in
  go (Some m) 0 len

let copy_into m ~off ~len dst ~dst_off =
  if dst_off + len > Bytes.length dst then
    invalid_arg "Mbuf.copy_into: destination too small";
  iter_segments m ~off ~len (fun buf boff seg chain_off ->
      Bytes.blit buf boff dst (dst_off + (chain_off - off)) seg)

let copy_into_csum m ~off ~len dst ~dst_off =
  if dst_off + len > Bytes.length dst then
    invalid_arg "Mbuf.copy_into_csum: destination too small";
  let sum = ref Inet_csum.zero in
  let consumed = ref 0 in
  iter_segments m ~off ~len (fun buf boff seg chain_off ->
      let part =
        Inet_csum.copy_and_sum ~src:buf ~src_off:boff ~dst
          ~dst_off:(dst_off + (chain_off - off)) ~len:seg
      in
      sum := Inet_csum.concat ~first_len:!consumed !sum part;
      consumed := !consumed + seg);
  !sum

(* [off] is relative to [mb]; a plain recursive walk, so the common
   first-mbuf hit allocates only the result. *)
let rec view_from mb ~off ~len =
  if off >= mb.len then
    match mb.next with
    | None -> None
    | Some n -> view_from n ~off:(off - mb.len) ~len
  else if len > mb.len - off then None
  else
    match mb.storage with
    | Internal c | Cluster c -> Some (c.cbuf, mb.off + off)
    | Ext_uio r ->
        let ubuf, upos = Region.backing r in
        Some (ubuf, upos + mb.off + off)
    | Ext_wcab _ -> None

let view m ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Mbuf.view: negative range";
  view_from m ~off ~len

let copy_into_raw m ~off ~len dst ~dst_off =
  if dst_off + len > Bytes.length dst then
    invalid_arg "Mbuf.copy_into_raw: destination too small";
  let rec go m pos remaining =
    if remaining > 0 then
      match m with
      | None -> invalid_arg "Mbuf.copy_into_raw: range past end of chain"
      | Some mb ->
          let skip = max 0 (off - pos) in
          if skip >= mb.len then go mb.next (pos + mb.len) remaining
          else begin
            let seg = min (mb.len - skip) remaining in
            let chain_off = off + len - remaining in
            (match mb.storage with
            | Internal c | Cluster c ->
                Bytes.blit c.cbuf (mb.off + skip) dst
                  (dst_off + (chain_off - off))
                  seg
            | Ext_uio r ->
                Region.blit_to_bytes r ~src_off:(mb.off + skip)
                  dst ~dst_off:(dst_off + (chain_off - off)) ~len:seg
            | Ext_wcab d ->
                Bytes.blit d.wcab_bytes
                  (d.wcab_base + mb.off + skip)
                  dst (dst_off + (chain_off - off)) seg);
            go mb.next (pos + mb.len) (remaining - seg)
          end
  in
  go (Some m) 0 len

let copy_from m ~off ~len src ~src_off =
  if src_off + len > Bytes.length src then
    invalid_arg "Mbuf.copy_from: source too small";
  (* A write needs the real underlying buffer, so handle UIO specially. *)
  let rec go m pos remaining =
    if remaining > 0 then
      match m with
      | None -> invalid_arg "Mbuf.copy_from: range past end of chain"
      | Some mb ->
          let skip = max 0 (off - pos) in
          if skip >= mb.len then go mb.next (pos + mb.len) remaining
          else begin
            let seg = min (mb.len - skip) remaining in
            let chain_off = off + len - remaining in
            (match mb.storage with
            | Internal c | Cluster c ->
                Bytes.blit src
                  (src_off + (chain_off - off))
                  c.cbuf (mb.off + skip) seg
            | Ext_uio r ->
                Region.blit_from_bytes src
                  ~src_off:(src_off + (chain_off - off))
                  r ~dst_off:(mb.off + skip) ~len:seg
            | Ext_wcab _ -> raise Outboard_data);
            go mb.next (pos + mb.len) (remaining - seg)
          end
  in
  go (Some m) 0 len

let to_string m =
  let n = chain_len m in
  let buf = Bytes.create n in
  copy_into m ~off:0 ~len:n buf ~dst_off:0;
  Bytes.unsafe_to_string buf

(* Sum [len] bytes from [skip] into [mb]'s data onwards, after
   [consumed] bytes already summed into [sum].  A plain recursive walk
   with no closure or ref cell, so a checksum allocates nothing. *)
let rec checksum_from mb ~skip ~len ~consumed sum =
  if skip >= mb.len then
    checksum_next mb ~skip:(skip - mb.len) ~len ~consumed sum
  else begin
    let seg = min (mb.len - skip) len in
    let part =
      match mb.storage with
      | Internal c | Cluster c ->
          Inet_csum.of_slice c.cbuf ~off:(mb.off + skip) ~len:seg
      | Ext_uio r -> Region.sum r ~off:(mb.off + skip) ~len:seg
      | Ext_wcab _ -> raise Outboard_data
    in
    let sum = Inet_csum.concat ~first_len:consumed sum part in
    checksum_next mb ~skip:0 ~len:(len - seg) ~consumed:(consumed + seg) sum
  end

and checksum_next mb ~skip ~len ~consumed sum =
  if len = 0 then sum
  else
    match mb.next with
    | None -> invalid_arg "Mbuf: range past end of chain"
    | Some n -> checksum_from n ~skip ~len ~consumed sum

let checksum m ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Mbuf: negative range";
  if len = 0 then Inet_csum.zero
  else checksum_from m ~skip:off ~len ~consumed:0 Inet_csum.zero

(* ---- chain surgery ---- *)

let rec last m = match m.next with None -> m | Some n -> last n

let append a b =
  b.pkthdr <- None;
  (last a).next <- Some b;
  fix_pkthdr a

let host_writable m =
  match m.storage with
  | Internal _ | Cluster _ -> true
  | Ext_uio _ | Ext_wcab _ -> false

(* Leading space may only be claimed in storage that is certainly private.
   Clusters are shared by [copy_range]/[split] without reference counting,
   so writing into their "free" leading bytes would scribble over live
   data of another chain (e.g. the previous TCP segment still queued for
   retransmit). *)
let private_head m =
  match m.storage with
  | Internal _ -> true
  | Cluster _ | Ext_uio _ | Ext_wcab _ -> false

let prepend m n =
  if n < 0 then invalid_arg "Mbuf.prepend: negative";
  if private_head m && m.off >= n then begin
    m.off <- m.off - n;
    m.len <- m.len + n;
    fix_pkthdr m;
    m
  end
  else begin
    let head =
      if n <= msize then mk (Internal (Pool.get_small ())) ~off:0 ~len:n
      else if n <= mclbytes then
        mk (Cluster (Pool.get_cluster ())) ~off:0 ~len:n
      else mk (Cluster (cell_create n)) ~off:0 ~len:n
    in
    (* Leave the data at the tail of the buffer so further prepends can
       reuse the leading space. *)
    (match head.storage with
    | Internal c | Cluster c -> head.off <- Bytes.length c.cbuf - n
    | Ext_uio _ | Ext_wcab _ -> assert false);
    head.next <- Some m;
    head.pkthdr <- m.pkthdr;
    m.pkthdr <- None;
    fix_pkthdr head;
    head
  end

let share_storage mb ~skip ~seg =
  match mb.storage with
  | Internal c ->
      let nc = Pool.get_small () in
      Bytes.blit c.cbuf (mb.off + skip) nc.cbuf 0 seg;
      mk (Internal nc) ~off:0 ~len:seg
  | Cluster c ->
      cell_retain c;
      mk (Cluster c) ~off:(mb.off + skip) ~len:seg
  | Ext_uio r ->
      let copy = mk (Ext_uio r) ~off:(mb.off + skip) ~len:seg in
      copy.notify <- mb.notify;
      copy
  | Ext_wcab d ->
      incr d.wcab_refs;
      mk (Ext_wcab d) ~off:(mb.off + skip) ~len:seg

let copy_range m ~off ~len =
  let total = chain_len m in
  let len = if len = -1 then total - off else len in
  if off < 0 || len < 0 || off + len > total then
    invalid_arg
      (Printf.sprintf "Mbuf.copy_range: off=%d len=%d of chain %d" off len
         total);
  (* Link copies in place as they are made (head/tail pointers) instead of
     accumulating a list and reversing it. *)
  let head = ref None and tail = ref None in
  if len > 0 then begin
    let rec go m pos remaining =
      if remaining > 0 then
        match m with
        | None -> assert false
        | Some mb ->
            let skip = max 0 (off - pos) in
            if skip >= mb.len then go mb.next (pos + mb.len) remaining
            else begin
              let seg = min (mb.len - skip) remaining in
              let copy = share_storage mb ~skip ~seg in
              (match !tail with
              | None -> head := Some copy
              | Some t -> t.next <- Some copy);
              tail := Some copy;
              go mb.next (pos + mb.len) (remaining - seg)
            end
    in
    go (Some m) 0 len
  end;
  let head =
    match !head with
    | None -> mk (Internal (Pool.get_small ())) ~off:0 ~len:0
    | Some h -> h
  in
  head.pkthdr <-
    Some
      {
        pkt_len = len;
        rcvif = rcvif m;
        rx_csum = None;
        tx_csum = None;
        on_outboard = None;
      };
  head

let release_storage mb =
  (match mb.storage with
  | Ext_wcab d ->
      decr d.wcab_refs;
      if !(d.wcab_refs) = 0 then d.wcab_free ()
  | Internal c | Cluster c -> cell_release c
  | Ext_uio _ -> ());
  Pool.note_free mb.storage

(* Pin the head mbuf's host storage across an asynchronous transfer (the
   driver's zero-copy SDMA capture).  The returned closure releases the
   pin; until it runs, [free]ing the chain will not recycle the bytes. *)
let retain_storage m =
  match m.storage with
  | Internal c | Cluster c ->
      cell_retain c;
      fun () -> cell_release c
  | Ext_uio _ | Ext_wcab _ -> fun () -> ()

let adj_head m n =
  if n < 0 then invalid_arg "Mbuf.adj_head: negative";
  if n > chain_len m then invalid_arg "Mbuf.adj_head: longer than chain";
  let remaining = ref n in
  (* Trim the head mbuf in place, then unlink emptied followers. *)
  let rec trim mb =
    if !remaining > 0 then begin
      let take = min mb.len !remaining in
      mb.off <- mb.off + take;
      mb.len <- mb.len - take;
      remaining := !remaining - take;
      if !remaining > 0 then
        match mb.next with
        | Some nx ->
            trim nx;
            (* Unlink [nx] if it was fully consumed. *)
            if nx.len = 0 then begin
              mb.next <- nx.next;
              nx.next <- None;
              release_storage nx
            end
        | None -> assert false
    end
  in
  trim m;
  fix_pkthdr m

let adj_tail m n =
  if n < 0 then invalid_arg "Mbuf.adj_tail: negative";
  let total = chain_len m in
  if n > total then invalid_arg "Mbuf.adj_tail: longer than chain";
  let keep = total - n in
  let rec go mb pos =
    let end_pos = pos + mb.len in
    if end_pos <= keep then
      match mb.next with None -> () | Some nx -> go nx end_pos
    else begin
      mb.len <- max 0 (keep - pos);
      (* Free everything after this mbuf. *)
      let rec free_rest = function
        | None -> ()
        | Some nx ->
            let tail = nx.next in
            nx.next <- None;
            release_storage nx;
            free_rest tail
      in
      free_rest mb.next;
      mb.next <- None
    end
  in
  go m 0;
  fix_pkthdr m

let pullup m n =
  if n > chain_len m then invalid_arg "Mbuf.pullup: chain too short";
  if n <= m.len && host_writable m then m
  else begin
    let cell =
      if n <= msize then Pool.get_small ()
      else if n <= mclbytes then Pool.get_cluster ()
      else cell_create n
    in
    copy_into m ~off:0 ~len:n cell.cbuf ~dst_off:0;
    let head =
      if n <= msize then mk (Internal cell) ~off:0 ~len:n
      else mk (Cluster cell) ~off:0 ~len:n
    in
    head.pkthdr <- m.pkthdr;
    m.pkthdr <- None;
    adj_head m n;
    (* Drop a fully emptied old head from the chain. *)
    if m.len = 0 then begin
      head.next <- m.next;
      m.next <- None;
      release_storage m
    end
    else head.next <- Some m;
    fix_pkthdr head;
    head
  end

let split m n =
  let total = chain_len m in
  if n < 0 || n > total then invalid_arg "Mbuf.split: out of range";
  let back = copy_range m ~off:n ~len:(total - n) in
  adj_tail m (total - n);
  if m.pkthdr = None then
    m.pkthdr <-
      Some
        {
          pkt_len = n;
          rcvif = None;
          rx_csum = None;
          tx_csum = None;
          on_outboard = None;
        };
  fix_pkthdr m;
  (m, back)

let free m =
  let rec go = function
    | None -> ()
    | Some mb ->
        let nx = mb.next in
        mb.next <- None;
        release_storage mb;
        go nx
  in
  go (Some m)

(* Publish pool statistics in the central registry (module init: the pool
   is a process-global, so plain registration is enough). *)
let () =
  let s = "mbuf_pool" in
  let fi f () = float_of_int (f ()) in
  Obs.gauge ~section:s ~name:"live" (fi Pool.allocated);
  Obs.gauge ~section:s ~name:"live_clusters" (fi Pool.clusters);
  Obs.gauge ~section:s ~name:"hwm" (fi Pool.hwm);
  Obs.gauge ~section:s ~name:"hwm_clusters" (fi Pool.hwm_clusters);
  Obs.gauge ~section:s ~name:"allocs" (fi Pool.total_allocs);
  Obs.gauge ~section:s ~name:"hits" (fi Pool.hit_count);
  Obs.gauge ~section:s ~name:"misses" (fi Pool.miss_count);
  Obs.gauge ~section:s ~name:"recycled" (fi Pool.recycled_count);
  Obs.gauge ~section:s ~name:"hit_rate" Pool.hit_rate;
  Obs.gauge ~section:s ~name:"free_small" (fi Pool.free_small);
  Obs.gauge ~section:s ~name:"free_clusters" (fi Pool.free_clusters)
