type key = Inaddr.t * Inaddr.t * int * int (* src, dst, proto, ident *)

type entry = {
  mutable buf : Bytes.t;
  mutable covered : (int * int) list;  (* sorted disjoint (off, len) *)
  mutable total : int option;  (* known once the MF=0 fragment arrives *)
  timer : Sim.handle;  (* expiry; stopped when the datagram completes *)
  hdr : Ipv4_header.t;  (* from the first fragment seen *)
}

type t = { host : Host.t; entries : (key, entry) Hashtbl.t }

(* How long an incomplete datagram waits for its missing fragments. *)
let timeout = Simtime.ms 200.

let create ~host = { host; entries = Hashtbl.create 16 }

(* Merge (off, len) into a sorted disjoint interval list. *)
let rec merge intervals (off, len) =
  match intervals with
  | [] -> [ (off, len) ]
  | (o, l) :: rest ->
      if off + len < o then (off, len) :: intervals
      else if o + l < off then (o, l) :: merge rest (off, len)
      else
        (* overlap or adjacency: coalesce *)
        let lo = min o off and hi = max (o + l) (off + len) in
        merge rest (lo, hi - lo)

let complete entry =
  match entry.total with
  | None -> false
  | Some total -> (
      match entry.covered with
      | [ (0, n) ] -> n >= total
      | _ -> false)

let input t ~hdr chain =
  let key =
    ( hdr.Ipv4_header.src,
      hdr.Ipv4_header.dst,
      hdr.Ipv4_header.proto,
      hdr.Ipv4_header.ident )
  in
  let off = hdr.Ipv4_header.frag_offset * 8 in
  let len = Mbuf.chain_len chain in
  let entry =
    match Hashtbl.find_opt t.entries key with
    | Some e -> e
    | None ->
        let e =
          {
            buf = Bytes.create (max 4096 (off + len));
            covered = [];
            total = None;
            timer =
              Sim.after t.host.Host.sim timeout (fun () ->
                  Hashtbl.remove t.entries key);
            hdr;
          }
        in
        Hashtbl.add t.entries key e;
        e
  in
  (* Grow the buffer if needed. *)
  if off + len > Bytes.length entry.buf then begin
    let nb = Bytes.create (max (off + len) (2 * Bytes.length entry.buf)) in
    Bytes.blit entry.buf 0 nb 0 (Bytes.length entry.buf);
    entry.buf <- nb
  end;
  (* Copy the fragment in (charged by the caller); outboard tails are read
     through directly — the cost model treats the whole fragment as one
     host copy, which is what BSD reassembly did. *)
  Mbuf.copy_into_raw chain ~off:0 ~len entry.buf ~dst_off:off;
  Mbuf.free chain;
  entry.covered <- merge entry.covered (off, len);
  if not hdr.Ipv4_header.more_fragments then entry.total <- Some (off + len);
  if complete entry then begin
    Sim.stop t.host.Host.sim entry.timer;
    Hashtbl.remove t.entries key;
    let total = Option.get entry.total in
    let payload = Mbuf.of_bytes ~pkthdr:true (Bytes.sub entry.buf 0 total) in
    let hdr =
      {
        entry.hdr with
        Ipv4_header.total_len = Ipv4_header.size + total;
        more_fragments = false;
        frag_offset = 0;
      }
    in
    Some (hdr, payload)
  end
  else None
