type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  profile : Host_profile.t;
  name : string;
  kernel_space : Addr_space.t;
  mutable ifaces : Netif.t list;
  shards : Shard.t array;
  mutable cur_shard : int;
}

let create ?(shards = 1) ~sim ~profile ~name () =
  if shards < 1 then invalid_arg "Host.create: shards must be >= 1";
  let cpu = Cpu.create ~sim ~name:(name ^ ".cpu") in
  let shard_arr =
    Array.init shards (fun i ->
        if i = 0 then Shard.make ~id:0 ~cpu
        else
          Shard.make ~id:i
            ~cpu:(Cpu.create ~sim ~name:(Printf.sprintf "%s.cpu%d" name i)))
  in
  if shards > 1 then Shard.register_obs ~host:name shard_arr;
  {
    sim;
    cpu;
    profile;
    name;
    kernel_space = Addr_space.create ~profile ~name:(name ^ ".kernel");
    ifaces = [];
    shards = shard_arr;
    cur_shard = 0;
  }

let add_iface t ifc = t.ifaces <- t.ifaces @ [ ifc ]

let find_iface t name =
  List.find_opt (fun (i : Netif.t) -> i.Netif.name = name) t.ifaces

let now t = Sim.now t.sim

let shard_count t = Array.length t.shards
let shard t i = t.shards.(i)
let shards t = t.shards

let in_proc_on t ~shard ~proc ?(mode = Cpu.Sys) ?(site = Cpu.Other) ?(csum = 0)
    cost k =
  if Array.length t.shards = 1 then
    Cpu.execute t.cpu ~proc ~mode ~site ~csum cost k
  else
    Cpu.execute t.shards.(shard).Shard.cpu ~proc ~mode ~site ~csum cost
      (fun () ->
        let prev = t.cur_shard in
        t.cur_shard <- shard;
        k ();
        t.cur_shard <- prev)

let in_intr_on t ~shard ?(site = Cpu.Intr) ?(csum = 0) cost k =
  if Array.length t.shards = 1 then Cpu.execute_intr t.cpu ~site ~csum cost k
  else
    Cpu.execute_intr t.shards.(shard).Shard.cpu ~site ~csum cost (fun () ->
        let prev = t.cur_shard in
        t.cur_shard <- shard;
        k ();
        t.cur_shard <- prev)

let in_proc t ~proc ?mode ?site ?csum cost k =
  in_proc_on t ~shard:t.cur_shard ~proc ?mode ?site ?csum cost k

let in_intr t ?site ?csum cost k =
  in_intr_on t ~shard:t.cur_shard ?site ?csum cost k

let after t d k = Sim.after t.sim d k
