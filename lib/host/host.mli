(** A simulated host: CPU, cost profile, kernel address space, interfaces.

    Bundles what every stack layer needs and provides charge-then-continue
    helpers: protocol code models its cost by running the real logic in the
    continuation of a CPU work item of the modelled duration.

    A host may be split into [shards] receive-side-scaling shards, each
    with a CPU of its own (see {!Shard}).  Shard 0 wraps the classic
    [cpu] field, so a 1-shard host is byte-identical to the pre-shard
    model: the charge helpers reduce to direct {!Cpu.execute} /
    {!Cpu.execute_intr} calls with no bookkeeping on that path. *)

type t = {
  sim : Sim.t;
  cpu : Cpu.t;  (** shard 0's CPU *)
  profile : Host_profile.t;
  name : string;
  kernel_space : Addr_space.t;
  mutable ifaces : Netif.t list;
  shards : Shard.t array;
  mutable cur_shard : int;
      (** shard whose code is currently running; charge helpers without
          an explicit [~shard] inherit it *)
}

val create :
  ?shards:int -> sim:Sim.t -> profile:Host_profile.t -> name:string -> unit -> t
(** [shards] defaults to 1.  Shards own only a CPU and a flow table:
    every shard draws buffers from the one process-wide {!Mbuf.Pool} and
    {!Bufpool.shared} free lists, and reads the host's one listener
    table. *)

val add_iface : t -> Netif.t -> unit
val find_iface : t -> string -> Netif.t option

val now : t -> Simtime.t

val shard_count : t -> int
val shard : t -> int -> Shard.t
val shards : t -> Shard.t array

val in_proc :
  t ->
  proc:string ->
  ?mode:Cpu.mode ->
  ?site:Cpu.site ->
  ?csum:Simtime.t ->
  Simtime.t ->
  (unit -> unit) ->
  unit
(** Charge CPU time to a process bucket, then continue.  [mode] defaults
    to [Sys] (protocol work).  Runs on the current shard's CPU.
    [?site]/[?csum] attribute the cycles for the profiler (see
    {!Cpu.execute}). *)

val in_intr :
  t ->
  ?site:Cpu.site ->
  ?csum:Simtime.t ->
  Simtime.t ->
  (unit -> unit) ->
  unit
(** Interrupt-context work: preempts, charged to whoever is running on
    the current shard's CPU.  [?site] defaults to [Cpu.Intr]. *)

val in_proc_on :
  t ->
  shard:int ->
  proc:string ->
  ?mode:Cpu.mode ->
  ?site:Cpu.site ->
  ?csum:Simtime.t ->
  Simtime.t ->
  (unit -> unit) ->
  unit
(** Like {!in_proc} but on an explicit shard's CPU.  While the
    continuation runs, that shard is the current shard, so interior
    charges it triggers stay on the same shard. *)

val in_intr_on :
  t ->
  shard:int ->
  ?site:Cpu.site ->
  ?csum:Simtime.t ->
  Simtime.t ->
  (unit -> unit) ->
  unit
(** Like {!in_intr} but on an explicit shard's CPU; see {!in_proc_on}. *)

val after : t -> Simtime.t -> (unit -> unit) -> Sim.handle
