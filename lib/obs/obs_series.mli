(** Time-series flight recorder: fixed-capacity ring of periodic
    snapshots of registry counters/gauges.

    A recorder binds a list of [(section, name)] metrics at creation
    time; each {!tick} (driven by the caller, typically a [Sim.periodic]
    timing-wheel timer) appends one row — the sim-clock timestamp plus
    one float column per metric.  Counters are recorded as per-interval
    deltas; gauges are sampled.  When full, the oldest row is
    overwritten and {!dropped} counts the loss, so benches and soaks
    keep the most recent window of activity.

    The tick path performs no allocation for counter and count-gauge
    columns (flat preallocated arrays, unboxed float stores); each float
    gauge column costs one boxed float per tick. *)

type t

val create :
  capacity:int -> interval:int -> metrics:(string * string) list -> t
(** [create ~capacity ~interval ~metrics] resolves each [(section,
    name)] against the Obs registry now (raising [Invalid_argument] if
    a metric is missing or is not a counter/gauge) and preallocates a
    [capacity]-row ring.  [interval] is the intended ns between ticks;
    it is not enforced, only recorded in the export header. *)

val tick : t -> now:int -> unit
(** Append one snapshot row stamped [now] (sim-clock ns), overwriting
    the oldest row when the ring is full. *)

val length : t -> int
(** Rows currently held (<= capacity). *)

val dropped : t -> int
(** Rows lost to overwrite since creation. *)

val iter : t -> (time:int -> row:float array -> unit) -> unit
(** Visit held rows oldest-first.  [row] is a fresh copy per call. *)

val to_json : t -> string
(** [{"interval_ns", "capacity", "dropped", "metrics": [names...],
    "samples": [[t_ns, v0, v1, ...], ...]}], samples oldest-first. *)
