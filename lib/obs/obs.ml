module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let get t = t.n
  let reset t = t.n <- 0
end

module Histogram = struct
  let buckets = 63

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make buckets 0; total = 0 }

  let bucket_of v =
    if v <= 1 then 0
    else
      let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
      let b = go 0 v in
      if b > buckets - 1 then buckets - 1 else b

  let observe t v =
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1

  let count t = t.total
  let bucket_lo i = if i = 0 then 0 else 1 lsl i
  let bucket_hi i = if i >= buckets - 1 then max_int else 1 lsl (i + 1)

  let bucket_count t i =
    if i < 0 || i >= buckets then invalid_arg "Histogram.bucket_count"
    else t.counts.(i)

  let reset t =
    Array.fill t.counts 0 buckets 0;
    t.total <- 0

  (* Continuous-rank quantile with log-linear interpolation inside the
     containing bucket: all we kept of each sample is its log2 bucket, so
     the estimate assumes samples spread geometrically across [2^i,
     2^(i+1)).  Bucket 0 (values <= 1) interpolates linearly over [0, 2).
     The overflow bucket extrapolates with the same 2x width. *)
  let quantile t q =
    if t.total = 0 then None
    else
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let r = q *. float_of_int (t.total - 1) in
      let i = ref 0 and cum = ref 0 in
      while float_of_int (!cum + t.counts.(!i)) <= r do
        cum := !cum + t.counts.(!i);
        incr i
      done;
      let n = t.counts.(!i) in
      let frac = (r -. float_of_int !cum +. 0.5) /. float_of_int n in
      let frac = if frac > 1. then 1. else frac in
      if !i = 0 then Some (2.0 *. frac)
      else Some (float_of_int (1 lsl !i) *. (2.0 ** frac))
end

type metric =
  | M_counter of Counter.t
  | M_gauge of (unit -> float)
  | M_int_gauge of (unit -> int)
  | M_histogram of Histogram.t
  | M_table of (unit -> string)

(* Registry: keyed (section, name); replace semantics so per-instance
   subsystems re-register freely. Export order is sorted (sections, then
   names) so JSON output is deterministic. *)
let tbl : (string * string, metric) Hashtbl.t = Hashtbl.create 64
let order : (string * string) list ref = ref []

let register ~section ~name m =
  let key = (section, name) in
  if not (Hashtbl.mem tbl key) then order := key :: !order;
  Hashtbl.replace tbl key m

let counter ~section ~name =
  let c = Counter.create () in
  register ~section ~name (M_counter c);
  c

let gauge ~section ~name f = register ~section ~name (M_gauge f)
let int_gauge ~section ~name f = register ~section ~name (M_int_gauge f)

let histogram ~section ~name =
  let h = Histogram.create () in
  register ~section ~name (M_histogram h);
  h

let table ~section ~name f = register ~section ~name (M_table f)
let find ~section ~name = Hashtbl.find_opt tbl (section, name)

let value ~section ~name =
  match find ~section ~name with
  | Some (M_counter c) -> float_of_int (Counter.get c)
  | Some (M_gauge f) -> f ()
  | Some (M_int_gauge f) -> float_of_int (f ())
  | Some (M_histogram _ | M_table _) | None ->
      invalid_arg
        (Printf.sprintf "Obs.value: no counter or gauge %s/%s" section name)

(* Sorted, not insertion-ordered: JSON export (and any golden test or
   registry diff built on it) must not depend on module-init order. *)
let ordered () =
  List.sort
    (fun (s1, n1) (s2, n2) ->
      match String.compare s1 s2 with 0 -> String.compare n1 n2 | c -> c)
    !order

let sections () =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (s, _) ->
      if Hashtbl.mem seen s then None
      else (
        Hashtbl.add seen s ();
        Some s))
    (ordered ())

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let metric_json = function
  | M_counter c -> string_of_int (Counter.get c)
  | M_gauge f -> json_float (f ())
  | M_int_gauge f -> json_float (float_of_int (f ()))
  | M_table f -> f ()
  | M_histogram h ->
      let b = Buffer.create 128 in
      Buffer.add_string b
        (Printf.sprintf "{\"count\": %d, \"buckets\": [" (Histogram.count h));
      let first = ref true in
      for i = 0 to Histogram.buckets - 1 do
        let n = Histogram.bucket_count h i in
        if n > 0 then (
          if not !first then Buffer.add_string b ", ";
          first := false;
          Buffer.add_string b
            (Printf.sprintf "[%d, %d, %d]" (Histogram.bucket_lo i)
               (Histogram.bucket_hi i) n))
      done;
      Buffer.add_string b "]}";
      Buffer.contents b

let to_json ?sections:(only = []) () =
  let keep s = only = [] || List.mem s only in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{";
  let first_section = ref true in
  List.iter
    (fun s ->
      if keep s then (
        if not !first_section then Buffer.add_string buf ",";
        first_section := false;
        Buffer.add_string buf (Printf.sprintf "\n  \"%s\": {" s);
        let first = ref true in
        List.iter
          (fun (s', n) ->
            if String.equal s s' then
              match Hashtbl.find_opt tbl (s', n) with
              | None -> ()
              | Some m ->
                  if not !first then Buffer.add_string buf ",";
                  first := false;
                  Buffer.add_string buf
                    (Printf.sprintf "\n    \"%s\": %s" n (metric_json m)))
          (ordered ());
        Buffer.add_string buf "\n  }"))
    (sections ());
  Buffer.add_string buf "\n}";
  Buffer.contents buf

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> Counter.reset c
      | M_histogram h -> Histogram.reset h
      | M_gauge _ | M_int_gauge _ | M_table _ -> ())
    tbl
