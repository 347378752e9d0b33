(* RSS sharding: flow-table model checking, sharded-vs-linear demux
   oracle, 10K open/close churn leak check, 1-shard trace identity and
   multi-shard scaling. *)

let sec name tests = (name, tests)
let case name f = Alcotest.test_case name `Quick f
let qcase t = QCheck_alcotest.to_alcotest t

(* --------------------------------------------------------------- *)
(* Flowtab vs an assoc-list model                                   *)
(* --------------------------------------------------------------- *)

(* A small universe of keys so adds/removes/finds collide often. *)
let universe =
  Array.init 24 (fun i ->
      let raddr = Inaddr.v 10 0 (i mod 3) (1 + (i * 7 mod 250)) in
      let lport = 1000 + (i * 13 mod 64) in
      let rport = 2000 + (i * 29 mod 64) in
      (raddr, lport, rport))

let key i =
  let raddr, lport, rport = universe.(i) in
  let hash = Flow_hash.hash ~raddr ~lport ~rport in
  let ka = (lport lsl 16) lor rport in
  let kb = Flow_hash.addr_bits raddr in
  (hash, ka, kb)

type op = Add of int * int | Remove of int | Find of int

let op_gen =
  QCheck.Gen.(
    let idx = int_bound (Array.length universe - 1) in
    frequency
      [
        (4, map2 (fun i v -> Add (i, v)) idx (int_bound 10_000));
        (2, map (fun i -> Remove i) idx);
        (4, map (fun i -> Find i) idx);
      ])

let op_print = function
  | Add (i, v) -> Printf.sprintf "Add(%d,%d)" i v
  | Remove i -> Printf.sprintf "Remove %d" i
  | Find i -> Printf.sprintf "Find %d" i

let flowtab_model =
  QCheck.Test.make ~count:500 ~name:"flowtab agrees with assoc model"
    QCheck.(make ~print:Print.(list op_print) Gen.(list_size (int_bound 200) op_gen))
    (fun ops ->
      let tab = Flowtab.create ~initial:8 () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Add (i, v) ->
              let hash, ka, kb = key i in
              Flowtab.add tab ~hash ~ka ~kb v;
              model := (i, v) :: List.remove_assoc i !model;
              Flowtab.length tab = List.length !model
          | Remove i ->
              let hash, ka, kb = key i in
              Flowtab.remove tab ~hash ~ka ~kb;
              model := List.remove_assoc i !model;
              Flowtab.length tab = List.length !model
          | Find i ->
              let hash, ka, kb = key i in
              Flowtab.find tab ~hash ~ka ~kb = List.assoc_opt i !model)
        ops)

(* --------------------------------------------------------------- *)
(* Sharded demux = linear demux                                     *)
(* --------------------------------------------------------------- *)

(* Insert random flows into N per-shard tables (shard chosen by the RSS
   hash, exactly as tcp.ml does) and into one linear assoc list; every
   lookup must deliver the same pcb id through either demux. *)
let tuple_gen =
  QCheck.Gen.(
    map
      (fun (a, (b, (lp, rp))) -> (Inaddr.v 10 0 a b, 1024 + lp, 1024 + rp))
      (pair (int_bound 3) (pair (int_bound 255) (pair (int_bound 99) (int_bound 99)))))

let sharded_demux_oracle =
  QCheck.Test.make ~count:200
    ~name:"sharded demux delivers the same pcb as linear demux"
    QCheck.(
      make
        ~print:
          Print.(
            pair int
              (list (fun ((_, lp, rp), v) -> Printf.sprintf "(lp=%d,rp=%d)->%d" lp rp v)))
        Gen.(pair (int_range 1 8) (list_size (int_bound 120) (pair tuple_gen (int_bound 1000)))))
    (fun (nshards, flows) ->
      let tabs = Array.init nshards (fun _ -> Flowtab.create ()) in
      let linear = ref [] in
      List.iter
        (fun ((raddr, lport, rport), v) ->
          let hash = Flow_hash.hash ~raddr ~lport ~rport in
          let s = Flow_hash.shard ~count:nshards hash in
          Flowtab.add tabs.(s) ~hash
            ~ka:((lport lsl 16) lor rport)
            ~kb:(Flow_hash.addr_bits raddr) v;
          linear := ((raddr, lport, rport), v) :: List.remove_assoc (raddr, lport, rport) !linear)
        flows;
      (* Look up every inserted tuple plus some perturbed (absent) ones. *)
      List.for_all
        (fun ((raddr, lport, rport), _) ->
          List.for_all
            (fun (lp, rp) ->
              let hash = Flow_hash.hash ~raddr ~lport:lp ~rport:rp in
              let s = Flow_hash.shard ~count:nshards hash in
              let via_shard =
                Flowtab.find tabs.(s) ~hash
                  ~ka:((lp lsl 16) lor rp)
                  ~kb:(Flow_hash.addr_bits raddr)
              in
              via_shard = List.assoc_opt (raddr, lp, rp) !linear)
            [ (lport, rport); (lport + 1, rport); (lport, rport + 1) ])
        flows)

let hash_spread () =
  (* The Toeplitz hash must actually spread flows: 4 shards, 4096
     distinct tuples, nobody starves. *)
  let counts = Array.make 4 0 in
  for i = 0 to 4095 do
    let raddr = Inaddr.v 10 0 (i mod 7) (i mod 251) in
    let h = Flow_hash.hash ~raddr ~lport:(10000 + i) ~rport:5001 in
    let s = Flow_hash.shard ~count:4 h in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d gets >=5%% of flows (got %d)" i c)
        true
        (c > 4096 / 20))
    counts

(* --------------------------------------------------------------- *)
(* 10K open/close churn across shards: leak check at scale          *)
(* --------------------------------------------------------------- *)

let churn_10k () =
  let tb = Testbed.create ~shards:4 () in
  let tcp_a = tb.Testbed.a.Testbed.stack.Netstack.tcp in
  let tcp_b = tb.Testbed.b.Testbed.stack.Netstack.tcp in
  let base = Testbed.occupancy tb in
  let n = 10_000 in
  let b_pcbs = ref [] and a_pcbs = ref [] in
  let established = ref 0 in
  let peak_checked = ref false in
  let check_peak () =
    peak_checked := true;
    List.iter
      (fun (name, (node : Testbed.node)) ->
        let host = node.Testbed.stack.Netstack.host.Host.name in
        (* A 4-shard host publishes one demux-table gauge per shard. *)
        let per =
          Array.init 4 (fun i ->
              int_of_float
                (Obs.value ~section:"shard"
                   ~name:(Printf.sprintf "%s.%d.flows" host i)))
        in
        Array.iteri
          (fun i c ->
            Alcotest.(check bool)
              (Printf.sprintf "%s shard %d owns flows (got %d)" name i c)
              true (c > 0))
          per)
      [ ("A", tb.Testbed.a); ("B", tb.Testbed.b) ]
  in
  let accepted = ref 0 in
  Tcp.listen tcp_b ~port:7000 ~on_accept:(fun pcb ->
      b_pcbs := pcb :: !b_pcbs;
      incr accepted;
      (* The receiver's accept backlog drains well after the senders all
         report established, so tear-down triggers off the last accept
         rather than a wall-clock guess. *)
      if !accepted = n then begin
        check_peak ();
        ignore
          (Sim.after tb.Testbed.sim (Simtime.ms 50.) (fun () ->
               List.iter Tcp.close !a_pcbs;
               List.iter Tcp.close !b_pcbs))
      end);
  (* Batch the opens so the adaptor never holds 10K in-flight SYNs. *)
  let batch = 250 in
  for g = 0 to (n / batch) - 1 do
    ignore
      (Sim.after tb.Testbed.sim
         (Simtime.ms (5. *. float_of_int g))
         (fun () ->
           for _ = 1 to batch do
             let pcb =
               Tcp.connect tcp_a ~dst:Testbed.addr_b ~dst_port:7000
                 ~on_established:(fun () -> incr established)
                 ()
             in
             a_pcbs := pcb :: !a_pcbs
           done))
  done;
  Sim.run ~until:(Simtime.s 60.) tb.Testbed.sim;
  Alcotest.(check int) "all connections established" n !established;
  Alcotest.(check int) "accepted matches" n (List.length !b_pcbs);
  Alcotest.(check bool) "peak occupancy sampled" true !peak_checked;
  Alcotest.(check (list string)) "drained to baseline" []
    (List.map Testbed.string_of_leak (Testbed.leaks tb base))

(* --------------------------------------------------------------- *)
(* 1-shard identity and multi-shard scaling                         *)
(* --------------------------------------------------------------- *)

(* A destination port whose flow hashes to shard 0 (mod 4) from both
   hosts' perspectives: the A-side tuple is (lport=10001, raddr=B,
   rport=p); the B-side tuple is (lport=p, raddr=A, rport=10001).
   Sdma_done completions always steer to shard 0, so only a
   shard-0-on-both-sides flow runs the byte-identical schedule. *)
let port_on_shard shard =
  let rec go p =
    if p > 60_000 then Alcotest.failf "no shard-%d port found" shard
    else if
      Flow_hash.shard ~count:4
        (Flow_hash.hash ~raddr:Testbed.addr_b ~lport:10_001 ~rport:p)
      = shard
      && Flow_hash.shard ~count:4
           (Flow_hash.hash ~raddr:Testbed.addr_a ~lport:p ~rport:10_001)
         = shard
    then p
    else go (p + 1)
  in
  go 5001

let one_shard_identity () =
  (* The same transfer on a 1-shard and a 4-shard testbed, pinned to a
     flow that hashes to shard 0 on both sides, must produce the exact
     same event schedule: same event count, same completion time, same
     throughput to the last bit. *)
  let port = port_on_shard 0 in
  let run shards =
    let tb = Testbed.create ~profile:Host_profile.smp ~shards () in
    let r = Ttcp.run ~tb ~wsize:(64 * 1024) ~total:(1024 * 1024) ~port () in
    (r.Ttcp.receiver.Measurement.throughput_mbit,
     Simtime.to_us r.Ttcp.receiver.Measurement.elapsed,
     Sim.events_fired tb.Testbed.sim)
  in
  let mbit1, us1, ev1 = run 1 in
  let mbit4, us4, ev4 = run 4 in
  Alcotest.(check int) "events fired identical" ev1 ev4;
  Alcotest.(check (float 0.)) "elapsed identical" us1 us4;
  Alcotest.(check (float 0.)) "throughput identical" mbit1 mbit4

(* Ttcp measures the CPU of the shard that owns the flow.  On a flow
   hashing to shard 2 on both hosts, the sender's ttcp user time is
   exactly its loop cost: 5 us per write. *)
let ttcp_measures_owning_shard () =
  let port = port_on_shard 2 in
  let tb = Testbed.create ~profile:Host_profile.smp ~shards:4 () in
  let wsize = 64 * 1024 and total = 1024 * 1024 in
  let r = Ttcp.run ~tb ~wsize ~total ~port () in
  Alcotest.(check bool) "verified" true r.Ttcp.verified;
  Alcotest.(check int) "sender ttcp_user = writes x 5 us"
    (total / wsize * Simtime.us 5.)
    r.Ttcp.sender.Measurement.ttcp_user;
  Alcotest.(check bool) "receiver ttcp_user charged" true
    (r.Ttcp.receiver.Measurement.ttcp_user > 0)

let parallel_scaling () =
  (* 8 concurrent flows on the CPU-bound smp profile with a fat link:
     4 shards must beat 1 shard by at least 2x aggregate. *)
  let run shards =
    let tb =
      Testbed.create ~profile:Host_profile.smp ~shards ~link_rate:1.25e9 ()
    in
    let r =
      Ttcp.run_parallel ~tb ~flows:8 ~wsize:(256 * 1024)
        ~total:(1024 * 1024) ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "%d-shard payload verified" shards)
      true r.Ttcp.p_verified;
    (r.Ttcp.p_mbit, tb)
  in
  let mbit1, _ = run 1 in
  let mbit4, tb4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4-shard >= 2x 1-shard (%.0f vs %.0f Mbit/s)" mbit4 mbit1)
    true
    (mbit4 >= 2. *. mbit1);
  (* Steering counters: the receiver's interrupt batches must have been
     spread over more than one shard. *)
  let host_b = tb4.Testbed.b.Testbed.stack.Netstack.host in
  let busy =
    Array.to_list (Host.shards host_b)
    |> List.filter (fun s -> s.Shard.intr_batches > 0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "receiver interrupts landed on >=2 shards (got %d)"
       (List.length busy))
    true
    (List.length busy >= 2);
  let total_events =
    Array.fold_left
      (fun acc s -> acc + s.Shard.intr_events)
      0 (Host.shards host_b)
  in
  Alcotest.(check bool) "steering saw interrupt events" true (total_events > 0)

(* The CPU that runs a continuation sets its host's current shard around
   it, so no closure is wrapped around a sharded continuation: on a
   4-shard host a charge with a preallocated continuation allocates
   nothing.  The continuation reads its own shard in [cur_shard], a
   [Host.in_proc] it makes runs on the same shard, and the value the
   cell held before is back once the continuation returns. *)
let shard_context () =
  let sim = Sim.create () in
  let host =
    Host.create ~shards:4 ~sim ~profile:Host_profile.alpha400 ~name:"ctx" ()
  in
  let cur () = !(host.Host.cur_shard) in
  let seen = Array.make 4 (-1) and nested = Array.make 4 (-1) in
  let intr_seen = Array.make 4 (-1) in
  host.Host.cur_shard := 3;
  for shard = 0 to 3 do
    Host.in_proc_on host ~shard ~proc:"p" 100 (fun () ->
        seen.(shard) <- cur ();
        Host.in_proc host ~proc:"p" 10 (fun () -> nested.(shard) <- cur ()));
    Host.in_intr_on host ~shard 5 (fun () -> intr_seen.(shard) <- cur ())
  done;
  Sim.run sim;
  let shards = [| 0; 1; 2; 3 |] in
  Alcotest.(check (array int)) "continuation sees its shard" shards seen;
  Alcotest.(check (array int)) "nested charge inherits it" shards nested;
  Alcotest.(check (array int)) "interrupt continuation too" shards intr_seen;
  Array.iter
    (fun sh ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d ran its own work" sh.Shard.id)
        115 (Cpu.busy sh.Shard.cpu))
    (Host.shards host);
  Alcotest.(check int) "previous value restored" 3 (cur ());
  host.Host.cur_shard := 0;
  let k () = () in
  (* 1 us items schedule on the timing wheel, which arms without
     allocating, so any word a submission takes is the charge's own. *)
  let drain () = Sim.run sim in
  let proc_w =
    Alloc_budget.measure 1000 ~drain ~submit:(fun i ->
        Host.in_proc_on host ~shard:(i land 3) ~proc:"p" 1_000 k)
  in
  let intr_w =
    Alloc_budget.measure 1000 ~drain ~submit:(fun i ->
        Host.in_intr_on host ~shard:(i land 3) 1_000 k)
  in
  Alcotest.(check (float 0.)) "words per in_proc_on" 0. proc_w.submit;
  Alcotest.(check (float 0.)) "words per in_intr_on" 0. intr_w.submit

let () =
  Alcotest.run "shard"
    [
      sec "flowtab" [ qcase flowtab_model; qcase sharded_demux_oracle ];
      sec "hash" [ case "toeplitz spread" hash_spread ];
      sec "churn" [ case "10K open/close across 4 shards" churn_10k ];
      sec "identity"
        [
          case "1-shard vs 4-shard shard-0 flow" one_shard_identity;
          case "ttcp measures the owning shard" ttcp_measures_owning_shard;
        ];
      sec "scaling" [ case "8-flow parallel speedup" parallel_scaling ];
      sec "context"
        [ case "the running CPU sets the shard, no wrapper" shard_context ];
    ]
