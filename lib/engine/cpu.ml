type mode = User | Sys

type site =
  | Checksum
  | Copy
  | Header
  | Demux
  | Intr
  | Timer
  | Socket
  | Other

let n_sites = 8

let site_index = function
  | Checksum -> 0
  | Copy -> 1
  | Header -> 2
  | Demux -> 3
  | Intr -> 4
  | Timer -> 5
  | Socket -> 6
  | Other -> 7

let site_name = function
  | Checksum -> "checksum"
  | Copy -> "copy"
  | Header -> "header"
  | Demux -> "demux"
  | Intr -> "intr"
  | Timer -> "timer"
  | Socket -> "socket"
  | Other -> "other"

let all_sites = [ Checksum; Copy; Header; Demux; Intr; Timer; Socket; Other ]

(* A work item: a {!Ring} slot, refilled in place on every submission. *)
type item = {
  mutable duration : Simtime.t;
  mutable proc : string;
  mutable mode : mode;
  (* Profiler attribution, fixed at submission: the whole item charges
     to [site] except [csum] of it, which charges to [Checksum].  One
     work item, two ledger rows — splitting into two queued items
     instead would let interrupt work preempt between them and perturb
     the deterministic schedule. *)
  mutable site : int;
  mutable csum : Simtime.t;
  mutable k : unit -> unit;
}

let nop () = ()

let blank () =
  { duration = 0; proc = ""; mode = Sys; site = 0; csum = 0; k = nop }

let push q ~duration ~proc ~mode ~site ~csum k =
  let it = Ring.push q in
  it.duration <- duration;
  it.proc <- proc;
  it.mode <- mode;
  it.site <- site;
  it.csum <-
    (if csum < 0 then 0 else if csum > duration then duration else csum);
  it.k <- k

type t = {
  sim : Sim.t;
  name : string;
  mutable idle_proc : string;
  mutable running : bool;
  mutable cur : item;  (* the running item while [running] *)
  intr_q : item Ring.t;
  normal_q : item Ring.t;
  buckets : (string * mode, int ref) Hashtbl.t;
  (* One-entry bucket memo: the steady state charges the same
     (proc, mode) pair event after event, so the common case skips the
     tuple key and the hashed lookup. *)
  mutable last_proc : string;
  mutable last_mode : mode;
  mutable last_cell : int ref;
  mutable busy_total : Simtime.t;
  sites : Simtime.t array;  (* n_sites cells; sums to busy_total *)
  (* One reusable completion timer: the CPU runs at most one item at a
     time, so every slice re-arms the same record — no per-item closure
     or handle allocation. *)
  timer : Sim.handle;
}

let no_cell : int ref = ref 0
let checksum_index = site_index Checksum

let name t = t.name
let set_idle_proc t p = t.idle_proc <- p

let charge t proc mode d =
  let cell =
    if t.last_cell != no_cell && t.last_mode == mode && String.equal t.last_proc proc
    then t.last_cell
    else begin
      let key = (proc, mode) in
      let c =
        match Hashtbl.find_opt t.buckets key with
        | Some c -> c
        | None ->
            let c = ref 0 in
            Hashtbl.add t.buckets key c;
            c
      in
      t.last_proc <- proc;
      t.last_mode <- mode;
      t.last_cell <- c;
      c
    end
  in
  cell := !cell + d;
  t.busy_total <- t.busy_total + d

let current_proc t = if t.running then t.cur.proc else t.idle_proc

let rec start_next t =
  let q = if Ring.length t.intr_q > 0 then t.intr_q else t.normal_q in
  if Ring.length q = 0 then t.running <- false
  else begin
    (* The finished item's record (continuation dropped) takes the
       popped slot. *)
    t.cur <- Ring.pop q t.cur;
    t.running <- true;
    Sim.rearm t.sim t.timer t.cur.duration
  end

and complete t =
  if t.running then begin
    let item = t.cur in
    charge t item.proc item.mode item.duration;
    (* Attribute every charged cycle to a profiler site; an item with a
       checksum share divides one duration across two sites, so the
       site ledger sums to busy_total exactly. *)
    let d = item.duration in
    let sc = item.csum in
    if sc > 0 then begin
      t.sites.(checksum_index) <- t.sites.(checksum_index) + sc;
      t.sites.(item.site) <- t.sites.(item.site) + (d - sc)
    end
    else t.sites.(item.site) <- t.sites.(item.site) + d;
    (* [cur] keeps its proc until [start_next]: an interrupt raised from
       [k] is charged to the process that just ran. *)
    let k = item.k in
    item.k <- nop;
    k ();
    start_next t
  end

let site_charged t s = t.sites.(site_index s)
let sites_total t = Array.fold_left ( + ) 0 t.sites

let sites_json t =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": %d" (site_name s) t.sites.(site_index s)))
    all_sites;
  Buffer.add_string b (Printf.sprintf ", \"total\": %d}" t.busy_total);
  Buffer.contents b

let create ~sim ~name =
  let t =
    {
      sim;
      name;
      idle_proc = "idle";
      running = false;
      cur = blank ();
      intr_q = Ring.create blank;
      normal_q = Ring.create blank;
      buckets = Hashtbl.create 8;
      last_proc = "";
      last_mode = Sys;
      last_cell = no_cell;
      busy_total = 0;
      sites = Array.make n_sites 0;
      timer = Sim.timer sim ignore;
    }
  in
  Sim.set_fn t.timer (fun () -> complete t);
  (* Per-CPU profiler row: cycles by site, plus the total it must sum
     to.  CPU names are unique per host/shard, so replace semantics
     only retire rows from stale testbeds reusing the same name. *)
  Obs.table ~section:"prof" ~name (fun () -> sites_json t);
  t

let execute t ~proc ~mode ?(site = Other) ?(csum = 0) duration k =
  push t.normal_q ~duration ~proc ~mode ~site:(site_index site) ~csum k;
  if not t.running then start_next t

let execute_intr t ?(site = Intr) ?(csum = 0) duration k =
  (* Charged to whoever is current at raise time — the paper's mis-charging. *)
  push t.intr_q ~duration ~proc:(current_proc t) ~mode:Sys
    ~site:(site_index site) ~csum k;
  if not t.running then start_next t

let charged t ~proc ~mode =
  match Hashtbl.find_opt t.buckets (proc, mode) with
  | Some c -> !c
  | None -> 0

let busy t = t.busy_total

let procs t =
  Hashtbl.fold
    (fun (p, _) c acc -> if !c > 0 && not (List.mem p acc) then p :: acc else acc)
    t.buckets []

let reset_accounting t =
  Hashtbl.reset t.buckets;
  (* The memoised cell points into the dropped table: invalidate it. *)
  t.last_cell <- no_cell;
  t.busy_total <- 0;
  Array.fill t.sites 0 n_sites 0
