(** Host CPU model with the paper's accounting methodology.

    The CPU is a serially shared resource.  Protocol code, copies, checksum
    reads and interrupt handlers are submitted as work items with a duration
    from the cost model; items run one at a time (interrupt items ahead of
    normal items, as on a real machine where interrupts preempt).

    Accounting reproduces §7.1 of the paper: every item is charged to a
    (process, mode) bucket, *except* interrupt work, which is charged as
    system time to whichever process happened to be running (or to the
    idle-soaking [util] process when the CPU was idle) — the mis-charging
    the paper's ttcp+util methodology was designed to correct for. *)

type t

type mode = User | Sys

(** Profiler site: a static taxonomy of where charged cycles go.
    Every work item carries one (optionally sharing its cycles with
    [Checksum] — see {!execute}), so the per-site ledger sums to {!busy}
    exactly. *)
type site =
  | Checksum  (** data-touching checksum/verify reads *)
  | Copy  (** data-touching copies (tx append, rx copy-out, staging) *)
  | Header  (** per-packet protocol header processing *)
  | Demux  (** flow-table lookup / shard steering *)
  | Intr  (** interrupt dispatch, doorbells, descriptor posts *)
  | Timer  (** watchdogs, poll timers, RTO machinery *)
  | Socket  (** socket-layer bookkeeping and VM-pin work *)
  | Other  (** anything not yet attributed (apps, idle soakers) *)

val site_name : site -> string
val all_sites : site list

val create : sim:Sim.t -> name:string -> shard_cell:int ref -> shard:int -> t
(** [shard_cell] is the current-shard cell of the host that owns the
    CPU, shared by all of that host's CPUs, and [shard] is this CPU's
    index.  While a completed item's continuation runs, the cell holds
    [shard]; the previous value is back when the continuation returns.
    A CPU outside a host takes [(ref 0)] and [0].

    Also registers the CPU's profiler row as Obs table
    [prof/<name>]: [{"checksum": n, ..., "total": busy}]. *)

val set_idle_proc : t -> string -> unit
(** Name of the process considered "running" while the CPU is idle
    (the compute-bound [util] soaker in the paper's methodology).
    Defaults to ["idle"]. *)

val execute :
  t ->
  proc:string ->
  mode:mode ->
  site:site ->
  csum:Simtime.t ->
  Simtime.t ->
  (unit -> unit) ->
  unit
(** [execute t ~proc ~mode ~site ~csum d k] queues [d] of CPU work
    charged to [(proc, mode)], then calls [k] when it completes.  [site]
    attributes the cycles for the profiler; [csum:c] attributes [c] of
    the duration to [Checksum] and the rest to [site] — still one work
    item, so mixed-cost charges (header + checksum) are profiled without
    perturbing the event schedule.  The arguments are plain, not
    optional: {!Host} passes them on every charge, and an optional
    argument is boxed where the call is not inlined.

    Queued items live in preallocated ring slots that are refilled in
    place, and a completed item's continuation is dropped before it
    runs: a submission allocates nothing but [k] itself. *)

val execute_intr :
  t -> site:site -> csum:Simtime.t -> Simtime.t -> (unit -> unit) -> unit
(** Interrupt-context work: runs ahead of normal work and is charged as
    [Sys] to the process that was current when the interrupt was raised. *)

val charged : t -> proc:string -> mode:mode -> Simtime.t
(** Total time charged to a bucket so far. *)

val busy : t -> Simtime.t
(** Total busy time (sum over all buckets). *)

val site_charged : t -> site -> Simtime.t
(** Cycles attributed to a profiler site so far. *)

val sites_total : t -> Simtime.t
(** Sum over all profiler sites — equal to {!busy} by construction
    (machine-checked in the test suite). *)

val procs : t -> string list
(** All process names with a nonzero bucket. *)

val reset_accounting : t -> unit
