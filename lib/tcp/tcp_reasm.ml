type seg = { seq : Tcp_seq.t; len : int; chain : Mbuf.t }

type t = { mutable segs : seg list (* sorted by seq *) }

let create () = { segs = [] }

let bytes_held t = List.fold_left (fun a s -> a + s.len) 0 t.segs

let insert t ~rcv_nxt ~seq chain =
  let len = Mbuf.chain_len chain in
  (* Trim anything at or below rcv_nxt. *)
  let behind = Tcp_seq.diff rcv_nxt seq in
  let seq, len, chain =
    if behind >= len then begin
      Mbuf.free chain;
      (seq, 0, None)
    end
    else if behind > 0 then begin
      Mbuf.adj_head chain behind;
      (Tcp_seq.add seq behind, len - behind, Some chain)
    end
    else (seq, len, Some chain)
  in
  match chain with
  | None -> ()
  | Some chain ->
      (* Trim against queued segments: drop the parts of the new segment
         already present. *)
      let rec place segs seq len chain =
        match segs with
        | [] -> [ { seq; len; chain } ]
        | s :: rest ->
            if Tcp_seq.ge seq (Tcp_seq.add s.seq s.len) then
              (* new segment entirely after s *)
              s :: place rest seq len chain
            else if Tcp_seq.ge seq s.seq then begin
              (* new starts inside s: trim its prefix *)
              let overlap = Tcp_seq.diff (Tcp_seq.add s.seq s.len) seq in
              if overlap >= len then begin
                Mbuf.free chain;
                s :: rest
              end
              else begin
                Mbuf.adj_head chain overlap;
                s
                :: place rest
                     (Tcp_seq.add seq overlap)
                     (len - overlap) chain
              end
            end
            else begin
              (* new starts before s *)
              let gap = Tcp_seq.diff s.seq seq in
              if len <= gap then { seq; len; chain } :: s :: rest
              else begin
                let new_end = Tcp_seq.add seq len in
                let s_end = Tcp_seq.add s.seq s.len in
                if Tcp_seq.le new_end s_end then begin
                  (* tail overlaps s: keep only the part before s *)
                  Mbuf.adj_tail chain (len - gap);
                  { seq; len = gap; chain } :: s :: rest
                end
                else begin
                  (* spans s entirely (a retransmission bridging it):
                     keep the head before s, and re-place the part past
                     s's end against the rest of the queue *)
                  let head, tail = Mbuf.split chain gap in
                  Mbuf.adj_head tail s.len;
                  { seq; len = gap; chain = head }
                  :: s
                  :: place rest s_end (Tcp_seq.diff new_end s_end) tail
                end
              end
            end
      in
      if len > 0 then t.segs <- place t.segs seq len chain
      else Mbuf.free chain

let take t ~rcv_nxt =
  let rec go segs nxt acc =
    match segs with
    | s :: rest when Tcp_seq.diff s.seq nxt = 0 ->
        go rest (Tcp_seq.add nxt s.len) ((s.chain, s.len) :: acc)
    | rest -> (List.rev acc, rest)
  in
  let taken, rest = go t.segs rcv_nxt [] in
  t.segs <- rest;
  taken
