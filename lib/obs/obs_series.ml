(* Time-series flight recorder over registry metrics.

   A recorder resolves a fixed set of registered counters/gauges at
   creation time and, on every [tick], appends one row to a
   fixed-capacity ring: the sim-clock timestamp plus one float column
   per metric (counters as per-interval deltas, gauges as sampled
   values).  When the ring is full the oldest row is overwritten, so a
   long soak keeps the most recent window.

   The tick path is alloc-free for counter and count-gauge columns:
   deltas live in a preallocated int array, and every column lands in a
   flat float array (unboxed stores).  A float gauge column costs one
   boxed float per sample (the closure return). *)

type src =
  | S_counter of Obs.Counter.t
  | S_gauge of (unit -> float)
  | S_int_gauge of (unit -> int)

type t = {
  capacity : int;
  interval : int;  (* ns between ticks; informational, stored for export *)
  names : string array;  (* "section/name" per column *)
  srcs : src array;
  prev : int array;  (* last counter reading per column (0 for gauges) *)
  times : int array;  (* ns timestamp per ring row *)
  data : float array;  (* capacity * ncols, row-major *)
  mutable head : int;  (* oldest row *)
  mutable len : int;
  mutable dropped : int;  (* rows overwritten after the ring filled *)
}

let create ~capacity ~interval ~metrics =
  if capacity <= 0 then invalid_arg "Obs_series.create: capacity";
  if metrics = [] then invalid_arg "Obs_series.create: no metrics";
  let resolve (section, name) =
    match Obs.find ~section ~name with
    | Some (Obs.M_counter c) -> S_counter c
    | Some (Obs.M_gauge f) -> S_gauge f
    | Some (Obs.M_int_gauge f) -> S_int_gauge f
    | Some _ ->
        invalid_arg
          (Printf.sprintf "Obs_series.create: %s/%s is not a counter or gauge"
             section name)
    | None ->
        invalid_arg
          (Printf.sprintf "Obs_series.create: no metric %s/%s" section name)
  in
  let srcs = Array.of_list (List.map resolve metrics) in
  let names =
    Array.of_list (List.map (fun (s, n) -> s ^ "/" ^ n) metrics)
  in
  let ncols = Array.length srcs in
  let prev = Array.make ncols 0 in
  Array.iteri
    (fun j s ->
      match s with
      | S_counter c -> prev.(j) <- Obs.Counter.get c
      | S_gauge _ | S_int_gauge _ -> ())
    srcs;
  {
    capacity;
    interval;
    names;
    srcs;
    prev;
    times = Array.make capacity 0;
    data = Array.make (capacity * ncols) 0.;
    head = 0;
    len = 0;
    dropped = 0;
  }

let length t = t.len
let dropped t = t.dropped

let tick t ~now =
  let m = Array.length t.srcs in
  let row =
    if t.len = t.capacity then begin
      let r = t.head in
      t.head <- (t.head + 1) mod t.capacity;
      t.dropped <- t.dropped + 1;
      r
    end
    else begin
      let r = (t.head + t.len) mod t.capacity in
      t.len <- t.len + 1;
      r
    end
  in
  t.times.(row) <- now;
  let base = row * m in
  for j = 0 to m - 1 do
    match Array.unsafe_get t.srcs j with
    | S_counter c ->
        let cur = Obs.Counter.get c in
        let d = cur - Array.unsafe_get t.prev j in
        Array.unsafe_set t.prev j cur;
        Array.unsafe_set t.data (base + j) (float_of_int d)
    | S_gauge f -> Array.unsafe_set t.data (base + j) (f ())
    | S_int_gauge f ->
        Array.unsafe_set t.data (base + j) (float_of_int (f ()))
  done

let iter t f =
  let m = Array.length t.srcs in
  for i = 0 to t.len - 1 do
    let row = (t.head + i) mod t.capacity in
    f ~time:t.times.(row) ~row:(Array.sub t.data (row * m) m)
  done

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"interval_ns\": %d,\n  \"capacity\": %d,\n  \"dropped\": %d,\n\
       \  \"metrics\": ["
       t.interval t.capacity t.dropped);
  Array.iteri
    (fun j n ->
      if j > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\"" n))
    t.names;
  Buffer.add_string b "],\n  \"samples\": [";
  let first = ref true in
  iter t (fun ~time ~row ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b (Printf.sprintf "\n    [%d" time);
      Array.iter
        (fun v -> Buffer.add_string b (Printf.sprintf ", %s" (json_float v)))
        row;
      Buffer.add_char b ']');
  Buffer.add_string b "\n  ]\n}";
  Buffer.contents b
