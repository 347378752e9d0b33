type route = Uio | Copy

type reason =
  | Unaligned
  | Below_cutover
  | Cold_pin
  | Above_cutover
  | Explore
  | Penalized
  | Trivial

type stats = {
  mutable uio_routed : int;
  mutable copy_routed : int;
  mutable unaligned : int;
  mutable below_cutover : int;
  mutable cold_pin : int;
  mutable above_cutover : int;
  mutable explored : int;
  mutable penalized : int;
  mutable trivial : int;
  mutable uio_observed : int;
  mutable copy_observed : int;
  mutable rx_uio_observed : int;
  mutable rx_copy_observed : int;
  mutable rx_feeds : int;
  mutable cutover_bytes : int;
}

(* Per-path cost table bucketed by log2(size): bucket i covers sizes in
   [2^i, 2^(i+1)).  EWMA with a 1/4 gain — new costs move the estimate
   quickly enough to track pin-cache warm-up without thrashing on one
   outlier. *)
let buckets = 31

type table = { ewma_us : float array; samples : int array }

let make_table () =
  { ewma_us = Array.make buckets 0.; samples = Array.make buckets 0 }

(* Fold one cost sample into bucket [i]; the first sample is taken as
   is. *)
let add_sample tab i us =
  let n = tab.samples.(i) in
  tab.ewma_us.(i) <-
    (if n = 0 then us else (0.75 *. tab.ewma_us.(i)) +. (0.25 *. us));
  tab.samples.(i) <- n + 1

let bucket_of len =
  let len = Stdlib.max 1 len in
  let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
  Stdlib.min (buckets - 1) (bits len 0)

type t = {
  uio : table;
  copy : table;
  (* Receive-side cost tables (the bidirectional half): what delivering a
     chain of this size costs the peer on the copy-out path (rx_uio) vs
     the 2-copy path (rx_copy).  Filled locally by the receiving socket
     via [observe_rx], or remotely via [feed_remote_rx] when the peer
     piggybacks its measurements back to the sender. *)
  rx_uio : table;
  rx_copy : table;
  mutable decisions : int;
  (* Fault-driven cost multiplier on the Uio threshold: >= 1.0, raised by
     [penalize] when the device reports trouble, decayed multiplicatively
     toward 1.0 on every decision so the spike ages out. *)
  mutable penalty : float;
  s : stats;  (* counters, and the cutover estimate [cutover_bytes] *)
}

(* The cutover estimate stays within [min_cutover, max_cutover]; a
   pin-cold buffer needs [cutover lsl cold_shift] bytes to route Uio; the
   fault penalty decays by [penalty_decay] per decision and [penalize]
   multiplies it by [penalty_factor]; every [explore_period]-th eligible
   decision explores. *)
let min_cutover = 1024
let max_cutover = 1 lsl 20
let cold_shift = 1
let penalty_decay = 0.9
let penalty_factor = 8.
let explore_period = 16

let static_cutover = 16 * 1024

let create () =
  {
    uio = make_table ();
    copy = make_table ();
    rx_uio = make_table ();
    rx_copy = make_table ();
    decisions = 0;
    penalty = 1.0;
    s =
      {
        uio_routed = 0;
        copy_routed = 0;
        unaligned = 0;
        below_cutover = 0;
        cold_pin = 0;
        above_cutover = 0;
        explored = 0;
        penalized = 0;
        trivial = 0;
        uio_observed = 0;
        copy_observed = 0;
        rx_uio_observed = 0;
        rx_copy_observed = 0;
        rx_feeds = 0;
        cutover_bytes = static_cutover;
      };
  }

let table t = function Uio -> t.uio | Copy -> t.copy

(* Re-derive the cutover from the tables: the smallest bucket where both
   paths have evidence and Uio is no more expensive.  Buckets where Copy
   still wins push the candidate above them, so a Uio win at 8K cannot
   survive a Copy win at 16K based on stale small-message data. *)
let min_samples = 2

let refresh_cutover t =
  let candidate = ref None in
  for i = 0 to buckets - 1 do
    if t.uio.samples.(i) >= min_samples && t.copy.samples.(i) >= min_samples
    then begin
      (* Bidirectional cost: once the receive side has evidence for both
         paths in this bucket, the cutover compares end-to-end cost
         (sender + receiver) rather than sender cost alone.  Buckets with
         one-sided rx evidence fall back to tx-only so a half-populated
         table cannot skew the comparison. *)
      let rx_known =
        t.rx_uio.samples.(i) > 0 && t.rx_copy.samples.(i) > 0
      in
      let uio_cost =
        t.uio.ewma_us.(i) +. (if rx_known then t.rx_uio.ewma_us.(i) else 0.)
      and copy_cost =
        t.copy.ewma_us.(i)
        +. (if rx_known then t.rx_copy.ewma_us.(i) else 0.)
      in
      if uio_cost <= copy_cost then begin
        match !candidate with
        | None -> candidate := Some (1 lsl i)
        | Some _ -> ()
      end
      else candidate := Some (1 lsl (i + 1))
    end
  done;
  match !candidate with
  | None -> ()
  | Some c ->
      t.s.cutover_bytes <- Stdlib.max min_cutover (Stdlib.min max_cutover c)

let count_reason t = function
  | Unaligned -> t.s.unaligned <- t.s.unaligned + 1
  | Below_cutover -> t.s.below_cutover <- t.s.below_cutover + 1
  | Cold_pin -> t.s.cold_pin <- t.s.cold_pin + 1
  | Above_cutover -> t.s.above_cutover <- t.s.above_cutover + 1
  | Explore -> t.s.explored <- t.s.explored + 1
  | Penalized -> t.s.penalized <- t.s.penalized + 1
  | Trivial -> t.s.trivial <- t.s.trivial + 1

let max_penalty = 64.

let penalize t =
  t.penalty <- Stdlib.min max_penalty (t.penalty *. penalty_factor)

(* Sends far below the cutover (under a quarter of it) can never route
   Uio (the cold-pin shift only raises the threshold), so skip the full
   decision machinery: no explore flips, no table bookkeeping downstream —
   the caller is expected to skip [observe] for [Trivial] results.  This
   keeps small-RPC rounds off the EWMA/refresh path entirely.  Disabled
   while a penalty is active so the decay still runs on every real
   decision. *)
let trivial_shift = 2

let decide t ~len ~aligned ~pin_warm =
  if t.penalty <= 1.0 && len < t.s.cutover_bytes lsr trivial_shift then begin
    t.s.copy_routed <- t.s.copy_routed + 1;
    t.s.trivial <- t.s.trivial + 1;
    (Copy, Trivial)
  end
  else begin
  t.decisions <- t.decisions + 1;
  if t.penalty > 1.0 then
    t.penalty <- Stdlib.max 1.0 (t.penalty *. penalty_decay);
  let route, reason =
    if not aligned then (Copy, Unaligned)
    else begin
      let threshold =
        if pin_warm then t.s.cutover_bytes else t.s.cutover_bytes lsl cold_shift
      in
      (* A sick adaptor (exhaustion, resets, pin failures) inflates the
         effective threshold, shifting traffic to the copy path until the
         penalty decays away. *)
      let eff_threshold =
        if t.penalty > 1.0 then
          int_of_float (float_of_int threshold *. t.penalty)
        else threshold
      in
      let base =
        if len >= eff_threshold then (Uio, Above_cutover)
        else if len >= threshold then (Copy, Penalized)
        else if len >= t.s.cutover_bytes then (Copy, Cold_pin)
        else (Copy, Below_cutover)
      in
      if t.decisions mod explore_period = 0 then
        match base with
        | Uio, _ -> (Copy, Explore)
        | Copy, _ -> (Uio, Explore)
      else base
    end
  in
  (match route with
  | Uio -> t.s.uio_routed <- t.s.uio_routed + 1
  | Copy -> t.s.copy_routed <- t.s.copy_routed + 1);
  count_reason t reason;
  (route, reason)
  end

let observe t ~route ~len ~cost =
  add_sample (table t route) (bucket_of len) (Simtime.to_us cost);
  (match route with
  | Uio -> t.s.uio_observed <- t.s.uio_observed + 1
  | Copy -> t.s.copy_observed <- t.s.copy_observed + 1);
  refresh_cutover t

let rx_table t = function Uio -> t.rx_uio | Copy -> t.rx_copy

let observe_rx t ~route ~len ~cost =
  add_sample (rx_table t route) (bucket_of len) (Simtime.to_us cost);
  (match route with
  | Uio -> t.s.rx_uio_observed <- t.s.rx_uio_observed + 1
  | Copy -> t.s.rx_copy_observed <- t.s.rx_copy_observed + 1);
  refresh_cutover t

(* A piggybacked receiver sample: the peer's smoothed per-bucket delivery
   cost in microseconds, zero meaning "no sample for that path yet".
   Merged with the same EWMA gain as local observations so a stream of
   hints converges on the peer's estimate without trusting any single
   report. *)
let feed_remote_rx t ~bucket ~uio_us ~copy_us =
  if bucket < 0 || bucket >= buckets then
    invalid_arg "Path_policy.feed_remote_rx: bucket out of range";
  if uio_us > 0. then add_sample t.rx_uio bucket uio_us;
  if copy_us > 0. then add_sample t.rx_copy bucket copy_us;
  t.s.rx_feeds <- t.s.rx_feeds + 1;
  refresh_cutover t

(* The receiver's outgoing hint for the bucket containing [len]: rounded
   EWMA microseconds per path, zero when that path has no samples.  This
   is exactly the wire format of the TCP Rx_cost option. *)
let rx_hint t ~len =
  let i = bucket_of len in
  let us tab = if tab.samples.(i) = 0 then 0 else
    int_of_float (tab.ewma_us.(i) +. 0.5)
  in
  (i, us t.rx_uio, us t.rx_copy)

let cutover t = t.s.cutover_bytes

let stats t = t.s

(* Registry export: decision counters as gauges over the live instance,
   EWMA cost tables as a lazy JSON table. Policies are per-socket;
   [register] uses the registry's replace semantics, so the most recently
   registered policy is the one exported (the benchmarks create one
   testbed at a time). *)
let tables_json t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "[";
  let first = ref true in
  for i = 0 to buckets - 1 do
    if t.uio.samples.(i) > 0 || t.copy.samples.(i) > 0 then begin
      if not !first then Buffer.add_string buf ", ";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"bucket_lo\": %d, \"uio_us\": %.3f, \"uio_samples\": %d, \
            \"copy_us\": %.3f, \"copy_samples\": %d, \"rx_uio_us\": %.3f, \
            \"rx_uio_samples\": %d, \"rx_copy_us\": %.3f, \
            \"rx_copy_samples\": %d}"
           (1 lsl i) t.uio.ewma_us.(i) t.uio.samples.(i) t.copy.ewma_us.(i)
           t.copy.samples.(i) t.rx_uio.ewma_us.(i) t.rx_uio.samples.(i)
           t.rx_copy.ewma_us.(i) t.rx_copy.samples.(i))
    end
  done;
  Buffer.add_string buf "]";
  Buffer.contents buf

let register t =
  let section = "path_policy" in
  let g name f = Obs.gauge ~section ~name (fun () -> float_of_int (f ())) in
  g "uio_routed" (fun () -> t.s.uio_routed);
  g "copy_routed" (fun () -> t.s.copy_routed);
  g "unaligned" (fun () -> t.s.unaligned);
  g "below_cutover" (fun () -> t.s.below_cutover);
  g "cold_pin" (fun () -> t.s.cold_pin);
  g "above_cutover" (fun () -> t.s.above_cutover);
  g "explored" (fun () -> t.s.explored);
  g "uio_observed" (fun () -> t.s.uio_observed);
  g "copy_observed" (fun () -> t.s.copy_observed);
  g "cutover_bytes" (fun () -> t.s.cutover_bytes);
  g "decisions" (fun () -> t.decisions);
  g "penalized" (fun () -> t.s.penalized);
  g "trivial" (fun () -> t.s.trivial);
  g "rx_uio_observed" (fun () -> t.s.rx_uio_observed);
  g "rx_copy_observed" (fun () -> t.s.rx_copy_observed);
  g "rx_feeds" (fun () -> t.s.rx_feeds);
  Obs.gauge ~section ~name:"penalty" (fun () -> t.penalty);
  Obs.table ~section ~name:"ewma_tables" (fun () -> tables_json t)
