type event =
  | Sock_write
  | Sendq_append
  | Sendq_merge
  | Packetize
  | Seed_compute
  | Sdma_post
  | Doorbell
  | Intr
  | Rx_adjust
  | Sock_read
  | Rx_autodma
  | Rx_copyout

let event_name = function
  | Sock_write -> "sock_write"
  | Sendq_append -> "sendq_append"
  | Sendq_merge -> "sendq_merge"
  | Packetize -> "packetize"
  | Seed_compute -> "seed_compute"
  | Sdma_post -> "sdma_post"
  | Doorbell -> "doorbell"
  | Intr -> "intr"
  | Rx_adjust -> "rx_adjust"
  | Sock_read -> "sock_read"
  | Rx_autodma -> "rx_autodma"
  | Rx_copyout -> "rx_copyout"

let ev_code = function
  | Sock_write -> 0
  | Sendq_append -> 1
  | Sendq_merge -> 2
  | Packetize -> 3
  | Seed_compute -> 4
  | Sdma_post -> 5
  | Doorbell -> 6
  | Intr -> 7
  | Rx_adjust -> 8
  | Sock_read -> 9
  | Rx_autodma -> 10
  | Rx_copyout -> 11

let ev_of_code = function
  | 0 -> Sock_write
  | 1 -> Sendq_append
  | 2 -> Sendq_merge
  | 3 -> Packetize
  | 4 -> Seed_compute
  | 5 -> Sdma_post
  | 6 -> Doorbell
  | 7 -> Intr
  | 8 -> Rx_adjust
  | 9 -> Sock_read
  | 10 -> Rx_autodma
  | _ -> Rx_copyout

type slot = { mutable ts : int; mutable ev : int; mutable a : int; mutable b : int }

type ring = {
  slots : slot array;
  mutable head : int;  (* next write position *)
  mutable len : int;   (* live events, <= capacity *)
  mutable dropped : int;
}

let make_ring capacity =
  {
    slots = Array.init capacity (fun _ -> { ts = 0; ev = 0; a = 0; b = 0 });
    head = 0;
    len = 0;
    dropped = 0;
  }

let ring = ref (make_ring 1024)
let on = ref false
let clock = ref (fun () -> 0)

let configure ~capacity =
  if capacity <= 0 then invalid_arg "Obs_trace.configure: capacity";
  ring := make_ring capacity

let set_clock f = clock := f
let enable () = on := true
let disable () = on := false

let emit ev ~a ~b =
  if !on then begin
    let r = !ring in
    let cap = Array.length r.slots in
    let s = r.slots.(r.head) in
    s.ts <- !clock ();
    s.ev <- ev_code ev;
    s.a <- a;
    s.b <- b;
    r.head <- (if r.head + 1 = cap then 0 else r.head + 1);
    if r.len = cap then r.dropped <- r.dropped + 1 else r.len <- r.len + 1
  end

let length () = (!ring).len
let dropped () = (!ring).dropped

let iter f =
  let r = !ring in
  let cap = Array.length r.slots in
  let start = (r.head - r.len + cap) mod cap in
  for i = 0 to r.len - 1 do
    let s = r.slots.((start + i) mod cap) in
    f ~ts:s.ts (ev_of_code s.ev) ~a:s.a ~b:s.b
  done

(* Chrome trace-event format: instant events on one pid/tid, ts in
   microseconds. Load via chrome://tracing or ui.perfetto.dev. *)
let to_chrome () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  let first = ref true in
  iter (fun ~ts ev ~a ~b ->
      if not !first then Buffer.add_string buf ",";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "\n  {\"name\": \"%s\", \"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \
            \"tid\": 1, \"ts\": %.3f, \"args\": {\"a\": %d, \"b\": %d}}"
           (event_name ev)
           (float_of_int ts /. 1000.)
           a b));
  Buffer.add_string buf "\n]}";
  Buffer.contents buf
