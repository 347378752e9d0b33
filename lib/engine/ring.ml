type 'a t = {
  blank : unit -> 'a;
  mutable slots : 'a array;
  mutable head : int;
  mutable len : int;
}

let create blank =
  { blank; slots = Array.init 16 (fun _ -> blank ()); head = 0; len = 0 }

let length r = r.len

let push r =
  let cap = Array.length r.slots in
  if r.len = cap then begin
    r.slots <-
      Array.init (2 * cap) (fun i ->
          if i < cap then r.slots.((r.head + i) land (cap - 1)) else r.blank ());
    r.head <- 0
  end;
  let slot = r.slots.((r.head + r.len) land (Array.length r.slots - 1)) in
  r.len <- r.len + 1;
  slot

let pop r spare =
  let slot = r.slots.(r.head) in
  r.slots.(r.head) <- spare;
  r.head <- (r.head + 1) land (Array.length r.slots - 1);
  r.len <- r.len - 1;
  slot

let peek r = r.slots.(r.head)

let drop r =
  r.head <- (r.head + 1) land (Array.length r.slots - 1);
  r.len <- r.len - 1
