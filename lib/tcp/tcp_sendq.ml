type t = {
  mutable chains : Mbuf.t list;  (* oldest first; no packet headers *)
  mutable len : int;
  hiwat : int;
}

let create ~hiwat = { chains = []; len = 0; hiwat }

let length t = t.len
let space t = max 0 (t.hiwat - t.len)

let rec last_mbuf (m : Mbuf.t) =
  match m.Mbuf.next with None -> m | Some n -> last_mbuf n

let append ?(merge_descriptors = false) t m =
  m.Mbuf.pkthdr <- None;
  t.len <- t.len + Mbuf.chain_len m;
  (* Descriptor coalescing (§7.2 revisited): link a new M_UIO descriptor
     onto a trailing M_UIO chain instead of starting a fresh chain, so
     consecutive small writes form one symbolic chain that packetization
     can cut full-MSS segments from.  Each descriptor keeps its own
     uiowcab header, so per-write UIO counters still resynchronize their
     writers individually. *)
  let merged =
    merge_descriptors
    && Mbuf.kind m = Mbuf.K_uio
    &&
    match List.rev t.chains with
    | last :: _ when Mbuf.kind (last_mbuf last) = Mbuf.K_uio ->
        Mbuf.append last m;
        true
    | _ -> false
  in
  if not merged then t.chains <- t.chains @ [ m ]

let append_merges_descriptor t m =
  (* Would [append ~merge_descriptors:true] merge this chain? (observable
     for stats without duplicating the predicate at the call site) *)
  Mbuf.kind m = Mbuf.K_uio
  &&
  match List.rev t.chains with
  | last :: _ -> Mbuf.kind (last_mbuf last) = Mbuf.K_uio
  | [] -> false

(* Locate chain list position of byte [off]; returns (prefix chains rev,
   chain containing off, offset within it, suffix chains). *)
let rec locate chains off prefix =
  match chains with
  | [] -> invalid_arg "Tcp_sendq: offset past end of queue"
  | c :: rest ->
      let cl = Mbuf.chain_len c in
      if off < cl || (off = 0 && cl = 0) then (prefix, c, off, rest)
      else locate rest (off - cl) (c :: prefix)

let range t ~off ~len =
  if off < 0 || len <= 0 || off + len > t.len then
    invalid_arg
      (Printf.sprintf "Tcp_sendq.range: off=%d len=%d of %d" off len t.len);
  (* Gather pieces across chains. *)
  let rec gather chains off remaining acc =
    match chains with
    | [] -> acc
    | c :: rest ->
        let cl = Mbuf.chain_len c in
        if off >= cl then gather rest (off - cl) remaining acc
        else
          let take = min (cl - off) remaining in
          let piece = Mbuf.copy_range c ~off ~len:take in
          piece.Mbuf.pkthdr <- None;
          let acc = piece :: acc in
          if remaining - take > 0 then gather rest 0 (remaining - take) acc
          else acc
  in
  let pieces = List.rev (gather t.chains off len []) in
  match pieces with
  | [] -> assert false
  | first :: rest ->
      (* Re-head with a packet header for the stack. *)
      let head = first in
      head.Mbuf.pkthdr <-
        Some
          {
            Mbuf.pkt_len = Mbuf.chain_len head;
            rcvif = None;
            rx_csum = None;
            tx_csum = None;
            on_outboard = None;
          };
      List.iter (fun p -> Mbuf.append head p) rest;
      head

(* The kind of the mbuf of chain [m] that holds its byte [rem]. *)
let rec kind_at (m : Mbuf.t) rem =
  if rem < m.Mbuf.len || m.Mbuf.next = None then Mbuf.kind m
  else kind_at (Option.get m.Mbuf.next) (rem - m.Mbuf.len)

let homogeneous_extent t ~off =
  if off < 0 || off >= t.len then
    invalid_arg "Tcp_sendq.homogeneous_extent: offset out of queue";
  let descriptor_chain c =
    (* Chains are homogeneous by construction: writes append either one
       descriptor mbuf or a run of regular mbufs. *)
    match Mbuf.kind c with
    | Mbuf.K_uio | Mbuf.K_wcab -> true
    | Mbuf.K_internal | Mbuf.K_cluster -> false
  in
  let _, c, coff, suffix = locate t.chains off [] in
  let kind = kind_at c coff in
  if descriptor_chain c then (kind, Mbuf.chain_len c - coff)
  else begin
    (* Extend across consecutive regular chains. *)
    let rec run acc = function
      | nxt :: rest when not (descriptor_chain nxt) ->
          run (acc + Mbuf.chain_len nxt) rest
      | _ -> acc
    in
    (kind, run (Mbuf.chain_len c - coff) suffix)
  end

let kinds_at t ~off ~len =
  let m = range t ~off ~len in
  let ks = Mbuf.chain_kinds m in
  Mbuf.free m;
  (* collapse consecutive duplicates *)
  let rec dedup = function
    | a :: b :: rest when a = b -> dedup (b :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup ks

let replace t ~off ~len repl =
  if off < 0 || len <= 0 || off + len > t.len then
    invalid_arg "Tcp_sendq.replace: range out of queue";
  if Mbuf.chain_len repl <> len then
    invalid_arg "Tcp_sendq.replace: replacement length mismatch";
  repl.Mbuf.pkthdr <- None;
  (* Split the queue at [off] and [off+len]. *)
  let prefix_rev, c, coff, suffix = locate t.chains off [] in
  (* Split chain c at coff. *)
  let keep_front, rest_of_c =
    if coff = 0 then (None, c)
    else
      let f, b = Mbuf.split c coff in
      (Some f, b)
  in
  (* Now consume [len] bytes starting at rest_of_c, possibly spanning into
     suffix chains. *)
  let rec consume chain suffix remaining freed =
    let cl = Mbuf.chain_len chain in
    if remaining < cl then begin
      let dead, keep = Mbuf.split chain remaining in
      (dead :: freed, Some keep, suffix)
    end
    else if remaining = cl then (chain :: freed, None, suffix)
    else
      match suffix with
      | [] -> invalid_arg "Tcp_sendq.replace: ran past end"
      | nxt :: more -> consume nxt more (remaining - cl) (chain :: freed)
  in
  let freed, keep_back, suffix = consume rest_of_c suffix len [] in
  List.iter Mbuf.free freed;
  let middle = [ repl ] in
  let rebuilt =
    List.rev_append prefix_rev
      ((match keep_front with Some f -> [ f ] | None -> [])
      @ middle
      @ (match keep_back with Some b -> [ b ] | None -> [])
      @ suffix)
  in
  t.chains <- rebuilt

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Tcp_sendq.drop: out of range";
  let rec go chains remaining =
    if remaining = 0 then chains
    else
      match chains with
      | [] -> invalid_arg "Tcp_sendq.drop: queue underflow"
      | c :: rest ->
          let cl = Mbuf.chain_len c in
          if cl <= remaining then begin
            Mbuf.free c;
            go rest (remaining - cl)
          end
          else begin
            Mbuf.adj_head c remaining;
            c :: rest
          end
  in
  t.chains <- go t.chains n;
  t.len <- t.len - n

let clear t =
  List.iter Mbuf.free t.chains;
  t.chains <- [];
  t.len <- 0

let check t =
  let total = List.fold_left (fun acc c -> acc + Mbuf.chain_len c) 0 t.chains in
  if total <> t.len then
    Error (Printf.sprintf "length field %d but chains hold %d" t.len total)
  else
    let rec first_err = function
      | [] -> Ok ()
      | c :: rest -> (
          match Mbuf.check_invariants c with
          | Ok () -> first_err rest
          | Error e -> Error e)
    in
    first_err t.chains
