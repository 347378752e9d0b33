(* The queued chains, oldest first, are [chains.(0) .. chains.(n - 1)],
   each beside its byte length in [lens], so a search by offset sums
   ints instead of walking mbufs.  Slots from [n] on hold [vacant].  The
   arrays belong to the queue and grow by doubling: in steady state an
   append, a drop or a replace allocates nothing here.  Every pcb holds
   a queue, so the record keeps no head index: a drop moves the
   remaining chains down instead. *)
type t = {
  mutable chains : Mbuf.t array;  (* no packet headers on append *)
  mutable lens : int array;
  mutable n : int;
  mutable len : int;
  hiwat : int;
}

(* Never queued, freed or read: the filler of every empty slot. *)
let vacant : Mbuf.t =
  { Mbuf.storage = Mbuf.Internal { Mbuf.cbuf = Bytes.empty; refs = 0 };
    off = 0; len = 0; next = None; pkthdr = None; notify = None }

let create ~hiwat =
  { chains = [||]; lens = [||]; n = 0; len = 0; hiwat }

let length t = t.len
let space t = max 0 (t.hiwat - t.len)

let set t i m mlen =
  t.chains.(i) <- m;
  t.lens.(i) <- mlen

let rec last_mbuf (m : Mbuf.t) =
  match m.Mbuf.next with None -> m | Some n -> last_mbuf n

(* Make room for [k] more chains behind the last one. *)
let reserve t k =
  let cap = Array.length t.chains in
  if t.n + k > cap then begin
    let ncap = max (t.n + k) (2 * cap) in
    let chains = Array.make ncap vacant and lens = Array.make ncap 0 in
    Array.blit t.chains 0 chains 0 t.n;
    Array.blit t.lens 0 lens 0 t.n;
    t.chains <- chains;
    t.lens <- lens
  end

(* Move chains [from, n) by [shift] slots (left when negative). *)
let shift_tail t from shift =
  if shift <> 0 then begin
    let k = t.n - from in
    Array.blit t.chains from t.chains (from + shift) k;
    Array.blit t.lens from t.lens (from + shift) k;
    if shift < 0 then Array.fill t.chains (t.n + shift) (-shift) vacant;
    t.n <- t.n + shift
  end

(* Would [append ~merge_descriptors:true] merge this chain? (observable
   for stats without duplicating the predicate at the call site) *)
let append_merges_descriptor t m =
  Mbuf.kind m = Mbuf.K_uio
  && t.n > 0
  && Mbuf.kind (last_mbuf t.chains.(t.n - 1)) = Mbuf.K_uio

let append ?(merge_descriptors = false) t m =
  m.Mbuf.pkthdr <- None;
  let mlen = Mbuf.chain_len m in
  t.len <- t.len + mlen;
  (* Descriptor coalescing (§7.2 revisited): link a new M_UIO descriptor
     onto a trailing M_UIO chain instead of starting a fresh chain, so
     consecutive small writes form one symbolic chain that packetization
     can cut full-MSS segments from.  Each descriptor keeps its own
     uiowcab header, so per-write UIO counters still resynchronize their
     writers individually. *)
  if merge_descriptors && append_merges_descriptor t m then begin
    let i = t.n - 1 in
    Mbuf.append t.chains.(i) m;
    t.lens.(i) <- t.lens.(i) + mlen
  end
  else begin
    reserve t 1;
    t.n <- t.n + 1;
    set t (t.n - 1) m mlen
  end

(* Index of the chain holding byte [off] of the queue.  An empty chain
   holds byte 0 of itself unless [skip_empty]. *)
let rec locate_from t ~skip_empty i off =
  if i >= t.n then invalid_arg "Tcp_sendq: offset past end of queue"
  else
    let cl = t.lens.(i) in
    if off < cl || (off = 0 && cl = 0 && not skip_empty) then i
    else locate_from t ~skip_empty (i + 1) (off - cl)

let locate t off = locate_from t ~skip_empty:false 0 off

(* Offset of byte [off] of the queue within chain [i]. *)
let rec offset_in t i off =
  if i = 0 then off else offset_in t (i - 1) (off - t.lens.(i - 1))

let check_range name t ~off ~len =
  if off < 0 || len <= 0 || off + len > t.len then
    invalid_arg
      (Printf.sprintf "Tcp_sendq.%s: off=%d len=%d of %d" name off len t.len)

let range t ~off ~len =
  check_range "range" t ~off ~len;
  let i = locate_from t ~skip_empty:true 0 off in
  let coff = offset_in t i off in
  let take = min (t.lens.(i) - coff) len in
  (* The first piece's fresh packet header heads the whole payload. *)
  let head = Mbuf.copy_range t.chains.(i) ~off:coff ~len:take in
  (match head.Mbuf.pkthdr with
  | Some ph ->
      ph.Mbuf.pkt_len <- len;
      ph.Mbuf.rcvif <- None
  | None -> assert false);
  (* Link the pieces of the following chains on behind it. *)
  let tail = ref (last_mbuf head) in
  let remaining = ref (len - take) in
  let i = ref (i + 1) in
  while !remaining > 0 do
    let cl = t.lens.(!i) in
    if cl > 0 then begin
      let take = min cl !remaining in
      let piece = Mbuf.copy_range t.chains.(!i) ~off:0 ~len:take in
      piece.Mbuf.pkthdr <- None;
      !tail.Mbuf.next <- Some piece;
      tail := last_mbuf piece;
      remaining := !remaining - take
    end;
    incr i
  done;
  head

(* Whether every mbuf holding bytes [skip, skip + len) of the chain from
   [m] is an M_WCAB descriptor. *)
let rec wcab_from (m : Mbuf.t) ~skip ~len =
  if skip >= m.Mbuf.len then
    match m.Mbuf.next with
    | Some nx -> wcab_from nx ~skip:(skip - m.Mbuf.len) ~len
    | None -> true
  else
    Mbuf.kind m = Mbuf.K_wcab
    && (len <= m.Mbuf.len - skip
       ||
       match m.Mbuf.next with
       | Some nx -> wcab_from nx ~skip:0 ~len:(len - (m.Mbuf.len - skip))
       | None -> true)

let rec wcab_chains t i ~skip ~len =
  len <= 0
  ||
  let take = min (t.lens.(i) - skip) len in
  (take <= 0 || wcab_from t.chains.(i) ~skip ~len:take)
  && wcab_chains t (i + 1) ~skip:0 ~len:(len - take)

let all_wcab t ~off ~len =
  check_range "all_wcab" t ~off ~len;
  let i = locate_from t ~skip_empty:true 0 off in
  wcab_chains t i ~skip:(offset_in t i off) ~len

(* The kind of the mbuf of chain [m] that holds its byte [rem]. *)
let rec kind_at (m : Mbuf.t) rem =
  if rem < m.Mbuf.len || m.Mbuf.next = None then Mbuf.kind m
  else kind_at (Option.get m.Mbuf.next) (rem - m.Mbuf.len)

(* Chains are homogeneous by construction: writes append either one
   descriptor mbuf or a run of regular mbufs. *)
let descriptor_chain c =
  match Mbuf.kind c with
  | Mbuf.K_uio | Mbuf.K_wcab -> true
  | Mbuf.K_internal | Mbuf.K_cluster -> false

let homogeneous_extent t ~off =
  if off < 0 || off >= t.len then
    invalid_arg "Tcp_sendq.homogeneous_extent: offset out of queue";
  let i = locate t off in
  let coff = offset_in t i off in
  let c = t.chains.(i) in
  let extent = ref (t.lens.(i) - coff) in
  if not (descriptor_chain c) then begin
    (* Extend across consecutive regular chains. *)
    let j = ref (i + 1) in
    while !j < t.n && not (descriptor_chain t.chains.(!j)) do
      extent := !extent + t.lens.(!j);
      incr j
    done
  end;
  (kind_at c coff, !extent)

let replace t ~off ~len repl =
  if off < 0 || len <= 0 || off + len > t.len then
    invalid_arg "Tcp_sendq.replace: range out of queue";
  if Mbuf.chain_len repl <> len then
    invalid_arg "Tcp_sendq.replace: replacement length mismatch";
  repl.Mbuf.pkthdr <- None;
  let i = locate t off in
  let coff = offset_in t i off in
  let c = t.chains.(i) in
  (* Split chain [i] at [off]: its front stays queued. *)
  let rest = if coff = 0 then c else snd (Mbuf.split c coff) in
  (* Chains [i, j] hold the range; it ends [remaining] bytes into [j]. *)
  let j = ref i and jlen = ref (t.lens.(i) - coff) in
  let remaining = ref len in
  while !remaining > !jlen do
    remaining := !remaining - !jlen;
    incr j;
    if !j >= t.n then invalid_arg "Tcp_sendq.replace: ran past end";
    jlen := t.lens.(!j)
  done;
  let j = !j and jlen = !jlen and remaining = !remaining in
  let last = if j = i then rest else t.chains.(j) in
  (* Split chain [j] where the range ends: its back stays queued. *)
  let back =
    if remaining < jlen then Some (snd (Mbuf.split last remaining))
    else None
  in
  (* Release the range's storage, last chain first. *)
  Mbuf.free last;
  for k = j - 1 downto i + 1 do
    Mbuf.free t.chains.(k)
  done;
  if j > i then Mbuf.free rest;
  (* Chains [i, j] give way to the front, [repl] and the back. *)
  let front = if coff > 0 then 1 else 0 in
  let shift =
    front + 1 + (match back with Some _ -> 1 | None -> 0) - (j - i + 1)
  in
  if shift > 0 then reserve t shift;
  shift_tail t (j + 1) shift;
  if coff > 0 then set t i c coff;
  set t (i + front) repl len;
  match back with
  | Some b -> set t (i + front + 1) b (jlen - remaining)
  | None -> ()

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Tcp_sendq.drop: out of range";
  let remaining = ref n and freed = ref 0 in
  while !remaining > 0 do
    if !freed = t.n then invalid_arg "Tcp_sendq.drop: queue underflow";
    let cl = t.lens.(!freed) in
    if cl <= !remaining then begin
      Mbuf.free t.chains.(!freed);
      incr freed;
      remaining := !remaining - cl
    end
    else begin
      Mbuf.adj_head t.chains.(!freed) !remaining;
      t.lens.(!freed) <- cl - !remaining;
      remaining := 0
    end
  done;
  shift_tail t !freed (- !freed);
  t.len <- t.len - n

let clear t =
  for i = 0 to t.n - 1 do
    Mbuf.free t.chains.(i)
  done;
  shift_tail t t.n (-t.n);
  t.len <- 0

let check t =
  let rec first_err i total =
    if i = t.n then
      if total <> t.len then
        Error (Printf.sprintf "length field %d but chains hold %d" t.len total)
      else Ok ()
    else
      let cl = Mbuf.chain_len t.chains.(i) in
      if cl <> t.lens.(i) then
        Error
          (Printf.sprintf "chain %d: cached length %d but chain holds %d" i
             t.lens.(i) cl)
      else
        match Mbuf.check_invariants t.chains.(i) with
        | Ok () -> first_err (i + 1) (total + cl)
        | Error e -> Error e
  in
  first_err 0 0
