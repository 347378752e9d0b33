(* Open-addressed flow table: linear probing, no tombstones (deletion
   backward-shifts the displaced run), power-of-two capacity, resize at
   3/4 load.  Keys are the demux tuple split across two int arrays —
   [ka] = lport lsl 16 lor rport (>= 0, so -1 marks an empty slot) and
   [kb] = the remote address bits — with the flow hash stored alongside
   so probes compare one int before touching the key words and deletion
   can recompute home slots without rehashing. *)

type 'v t = {
  mutable ka : int array;  (* -1 = empty *)
  mutable kb : int array;
  mutable hash : int array;
  mutable vals : 'v option array;
  mutable mask : int;
  mutable len : int;
}

let create ?(initial = 16) () =
  let cap = ref 8 in
  while !cap < initial do
    cap := !cap * 2
  done;
  let cap = !cap in
  {
    ka = Array.make cap (-1);
    kb = Array.make cap 0;
    hash = Array.make cap 0;
    vals = Array.make cap None;
    mask = cap - 1;
    len = 0;
  }

let length t = t.len

let find t ~hash ~ka ~kb =
  let mask = t.mask in
  let i = ref (hash land mask) in
  let r = ref None in
  let continue = ref true in
  while !continue do
    let i' = !i in
    if t.ka.(i') = -1 then continue := false
    else begin
      if t.hash.(i') = hash && t.ka.(i') = ka && t.kb.(i') = kb then begin
        r := t.vals.(i');
        continue := false
      end
      else i := (i' + 1) land mask
    end
  done;
  !r

let rec insert t ~hash ~ka ~kb v =
  if 4 * (t.len + 1) > 3 * (t.mask + 1) then grow t;
  let mask = t.mask in
  let i = ref (hash land mask) in
  let continue = ref true in
  while !continue do
    let i' = !i in
    if t.ka.(i') = -1 then begin
      t.ka.(i') <- ka;
      t.kb.(i') <- kb;
      t.hash.(i') <- hash;
      t.vals.(i') <- Some v;
      t.len <- t.len + 1;
      continue := false
    end
    else if t.hash.(i') = hash && t.ka.(i') = ka && t.kb.(i') = kb then begin
      t.vals.(i') <- Some v;
      continue := false
    end
    else i := (i' + 1) land mask
  done

and grow t =
  let oka = t.ka and okb = t.kb and oh = t.hash and ov = t.vals in
  let cap = 2 * (t.mask + 1) in
  t.ka <- Array.make cap (-1);
  t.kb <- Array.make cap 0;
  t.hash <- Array.make cap 0;
  t.vals <- Array.make cap None;
  t.mask <- cap - 1;
  t.len <- 0;
  Array.iteri
    (fun i k ->
      if k <> -1 then
        match ov.(i) with
        | Some v -> insert t ~hash:oh.(i) ~ka:k ~kb:okb.(i) v
        | None -> ())
    oka

let add t ~hash ~ka ~kb v = insert t ~hash ~ka ~kb v

let remove t ~hash ~ka ~kb =
  let mask = t.mask in
  let i = ref (hash land mask) in
  let found = ref false in
  let probing = ref true in
  while !probing do
    let i' = !i in
    if t.ka.(i') = -1 then probing := false
    else if t.hash.(i') = hash && t.ka.(i') = ka && t.kb.(i') = kb then begin
      found := true;
      probing := false
    end
    else i := (i' + 1) land mask
  done;
  if !found then begin
    t.len <- t.len - 1;
    (* Backward-shift the probe run so no tombstone is needed: an entry
       at [j] may fill the hole at [i] iff its home slot lies outside
       the cyclic interval (i, j]. *)
    let hole = ref !i in
    let j = ref !i in
    let shifting = ref true in
    while !shifting do
      j := (!j + 1) land mask;
      let j' = !j in
      if t.ka.(j') = -1 then shifting := false
      else begin
        let home = t.hash.(j') land mask in
        if (j' - home) land mask >= (j' - !hole) land mask then begin
          t.ka.(!hole) <- t.ka.(j');
          t.kb.(!hole) <- t.kb.(j');
          t.hash.(!hole) <- t.hash.(j');
          t.vals.(!hole) <- t.vals.(j');
          hole := j'
        end
      end
    done;
    t.ka.(!hole) <- -1;
    t.kb.(!hole) <- 0;
    t.vals.(!hole) <- None
  end
