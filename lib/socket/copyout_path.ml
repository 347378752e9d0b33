(* Shared receive-side delivery: move one received chain into a user
   region.  Both the stream socket and the datagram socket funnel their
   reads through here so the data-touch accounting (Obs_ledger), the
   staging rules, and the pin-failure degradation stay identical. *)

type piece = Kernel_copy | Copyout | Pin_fallback

type ctx = {
  host : Host.t;
  space : Addr_space.t;
  proc : string;
  cached : bool;
  note : piece -> unit;
}

let charge ?(site = Cpu.Socket) ctx cost k =
  Host.in_proc ctx.host ~proc:ctx.proc ~site cost k
let profile ctx = ctx.host.Host.profile

let observe_copyout ctx t0 =
  Obs.Histogram.observe Obs_lat.rx_copyout_ns
    (Simtime.sub (Sim.now ctx.host.Host.sim) t0)

(* Host copy of one mbuf's bytes into [region] at [dst_off]: straight
   blit when the storage is contiguous, staged through a pooled buffer
   (two touches) when it is a descriptor chain. *)
let host_copy_seg ctx mb ~seg region ~dst_off ~release =
  ctx.note Kernel_copy;
  let cost = Memcost.copy (profile ctx) ~locality:Memcost.Cold seg in
  charge ~site:Cpu.Copy ctx cost (fun () ->
      (match Mbuf.view mb ~off:0 ~len:seg with
      | Some (b, pos) ->
          Obs_ledger.touch Obs_ledger.Sock_rx_copy Obs_ledger.Copy seg;
          Region.blit_from_bytes b ~src_off:pos region ~dst_off ~len:seg
      | None ->
          Obs_ledger.touch Obs_ledger.Sock_rx_copy Obs_ledger.Copy (2 * seg);
          let tmp = Bufpool.get Bufpool.shared seg in
          Mbuf.copy_into mb ~off:0 ~len:seg tmp ~dst_off:0;
          Region.blit_from_bytes tmp ~src_off:0 region ~dst_off ~len:seg;
          Bufpool.put Bufpool.shared tmp);
      release ())

(* Outboard segment: pin + map the destination (charged), then let the
   driver's copy-out engine move the data.  If the pin fails, degrade:
   DMA into kernel staging (no user pages need wiring for that) and
   finish with a host copy. *)
let copyout_seg ctx ~copy_out mb ~seg region ~dst_off ~release =
  ctx.note Copyout;
  let dst = Region.sub region ~off:dst_off ~len:seg in
  match Addr_space.wire ctx.space dst ~cached:ctx.cached with
  | Ok vm_cost ->
      (* Warm pin: no kernel VM work to charge, so hand the descriptor
         to the engine immediately rather than queueing a zero-length
         CPU step behind whatever the host is copying — the post must
         not serialize behind the chain's header-prefix copy or the
         engine idles for exactly that long between back-to-back
         copy-outs. *)
      let post () =
        let t0 = Sim.now ctx.host.Host.sim in
        copy_out mb ~off:0 ~len:seg
          ~dst:(Netif.To_user dst)
          ~on_done:(fun () ->
            observe_copyout ctx t0;
            charge ctx (Addr_space.unwire ctx.space dst ~cached:ctx.cached)
              release)
      in
      if vm_cost = Simtime.zero then post ()
      else charge ctx vm_cost post
  | Error wasted ->
      ctx.note Pin_fallback;
      let stage = Bufpool.get Bufpool.shared seg in
      charge ctx wasted (fun () ->
          let t0 = Sim.now ctx.host.Host.sim in
          copy_out mb ~off:0 ~len:seg
            ~dst:(Netif.To_kernel (stage, 0))
            ~on_done:(fun () ->
              observe_copyout ctx t0;
              let cost = Memcost.copy (profile ctx) ~locality:Memcost.Cold seg in
              charge ~site:Cpu.Copy ctx cost (fun () ->
                  Obs_ledger.touch Obs_ledger.Sock_rx_copy Obs_ledger.Copy seg;
                  Region.blit_from_bytes stage ~src_off:0 dst ~dst_off:0
                    ~len:seg;
                  Bufpool.put Bufpool.shared stage;
                  release ())))

(* Post one piece — [seg] bytes of [mb] to [region] at [dst_off] — and
   run [release] when it has landed.  False when nothing can move an
   outboard piece (cannot happen with a correctly assembled stack): its
   bytes are dropped and [release] never runs. *)
let post_seg ctx ~iface mb ~seg region ~dst_off ~release =
  match Mbuf.kind mb with
  | Mbuf.K_internal | Mbuf.K_cluster | Mbuf.K_uio ->
      host_copy_seg ctx mb ~seg region ~dst_off ~release;
      true
  | Mbuf.K_wcab -> (
      match iface with
      | Some { Netif.copy_out = Some copy_out; _ } ->
          copyout_seg ctx ~copy_out mb ~seg region ~dst_off ~release;
          true
      | Some _ | None -> false)

(* Post every piece of the chain from [mb] on, [off] being where [mb]'s
   bytes land in [region]; each posted piece holds [pending] until it
   lands, and the walk's own hold (the barrier) is released at the end
   of the chain or where [limit] truncates it. *)
let rec walk ctx ~iface (mb : Mbuf.t) region ~dst_off ~limit ~off ~pending
    ~release =
  let seg = min mb.Mbuf.len (limit - (off - dst_off)) in
  if mb.Mbuf.len > 0 && seg <= 0 then release ()
  else begin
    if seg > 0 then begin
      incr pending;
      if not (post_seg ctx ~iface mb ~seg region ~dst_off:off ~release) then
        decr pending
    end;
    match mb.Mbuf.next with
    | Some next ->
        walk ctx ~iface next region ~dst_off ~limit
          ~off:(off + Stdlib.max seg 0)
          ~pending ~release
    | None -> release ()
  end

let deliver_chain ctx ~iface chain region ~dst_off ~limit k =
  let pending = ref 1 (* barrier: released after the walk *) in
  let release () =
    decr pending;
    if !pending = 0 then begin
      Mbuf.free chain;
      k ()
    end
  in
  walk ctx ~iface chain region ~dst_off ~limit ~off:dst_off ~pending ~release
