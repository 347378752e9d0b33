type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  profile : Host_profile.t;
  name : string;
  mutable ifaces : Netif.t list;
  shards : Shard.t array;
  cur_shard : int ref;
}

let create ?(shards = 1) ~sim ~profile ~name () =
  if shards < 1 then invalid_arg "Host.create: shards must be >= 1";
  let cur_shard = ref 0 in
  let shard_arr =
    Array.init shards (fun i ->
        let name =
          if i = 0 then name ^ ".cpu" else Printf.sprintf "%s.cpu%d" name i
        in
        Shard.make ~id:i
          ~cpu:(Cpu.create ~sim ~name ~shard_cell:cur_shard ~shard:i))
  in
  if shards > 1 then Shard.register_obs ~host:name shard_arr;
  {
    sim;
    cpu = shard_arr.(0).Shard.cpu;
    profile;
    name;
    ifaces = [];
    shards = shard_arr;
    cur_shard;
  }

let add_iface t ifc = t.ifaces <- t.ifaces @ [ ifc ]

let find_iface t name =
  List.find_opt (fun (i : Netif.t) -> i.Netif.name = name) t.ifaces

let now t = Sim.now t.sim

let shard_count t = Array.length t.shards
let shard t i = t.shards.(i)
let shards t = t.shards

(* A 1-shard host runs everything on [cpu], whatever shard is named.
   The CPU that runs a continuation sets [cur_shard] around it. *)
let cpu_on t shard =
  if Array.length t.shards = 1 then t.cpu else t.shards.(shard).Shard.cpu

let in_proc_on t ~shard ~proc ?(mode = Cpu.Sys) ?(site = Cpu.Other) ?(csum = 0)
    cost k =
  Cpu.execute (cpu_on t shard) ~proc ~mode ~site ~csum cost k

let in_intr_on t ~shard ?(site = Cpu.Intr) ?(csum = 0) cost k =
  Cpu.execute_intr (cpu_on t shard) ~site ~csum cost k

let in_proc t ~proc ?site ?csum cost k =
  in_proc_on t ~shard:!(t.cur_shard) ~proc ?site ?csum cost k

let in_intr t ?site ?csum cost k =
  in_intr_on t ~shard:!(t.cur_shard) ?site ?csum cost k

let after t d k = Sim.after t.sim d k
