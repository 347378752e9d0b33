(** Central metrics registry.

    Every subsystem that keeps ad-hoc statistics (mbuf pools, the frame
    bufpool, the pin cache, the adaptive path policy, the CAB adaptor and
    its driver) publishes them here under a [section], so one call —
    {!to_json} — exports a consistent snapshot of the whole datapath.

    Design constraints (see ISSUE 4):

    - zero allocation in steady state: counters are a single mutable int;
      gauges and tables are closures evaluated only at export time;
      histograms are fixed 63-slot int arrays.
    - registration uses {e replace} semantics keyed by [(section, name)]:
      per-instance subsystems (a CAB per host, a policy per socket)
      re-register on creation and the latest instance wins, which matches
      how the benchmarks reuse one process for many testbeds. *)

(** Monotonic counter: one mutable int, safe to bump on the hot path. *)
module Counter : sig
  type t

  val incr : t -> unit
  val get : t -> int
  val reset : t -> unit
end

(** Log2-bucketed histogram for size/latency-like quantities.

    Bucket [i] covers values in [\[2^i, 2^(i+1))]; bucket 0 also absorbs
    values [<= 1] (including zero and negatives). 63 buckets cover the
    whole positive [int] range, so {!observe} never allocates and never
    branches out of range. *)
module Histogram : sig
  type t

  val create : unit -> t
  val observe : t -> int -> unit
  val count : t -> int

  val bucket_of : int -> int
  (** [bucket_of v] is the index [observe] charges for [v]:
      [floor (log2 v)] clamped to [\[0, 62\]]. *)

  val bucket_lo : int -> int
  (** Inclusive lower bound of bucket [i] (= [2^i]; bucket 0 reports 0). *)

  val bucket_hi : int -> int
  (** Exclusive upper bound of bucket [i] (= [2^(i+1)], [max_int] for the
      last bucket). *)

  val bucket_count : t -> int -> int
  val reset : t -> unit

  val quantile : t -> float -> float option
  (** [quantile t q] estimates the [q]-quantile ([0. <= q <= 1.],
      clamped) of the observed samples under the continuous-rank
      convention [r = q * (count - 1)], interpolating log-linearly
      within the containing log2 bucket (linearly in bucket 0, which
      holds values [<= 1]).  [None] when the histogram is empty.  The
      estimate is off by at most one bucket width (a factor of 2). *)
end

(** What a registered metric is. *)
type metric =
  | M_counter of Counter.t
  | M_gauge of (unit -> float)  (** sampled only at export *)
  | M_int_gauge of (unit -> int)
      (** a count: reads and exports as the float of its int, but
          sampling it allocates nothing, where a float gauge's closure
          returns a boxed float *)
  | M_histogram of Histogram.t
  | M_table of (unit -> string)
      (** lazy JSON fragment (object or array), e.g. EWMA cost tables *)

val counter : section:string -> name:string -> Counter.t
(** Create and register a counter in one step. *)

val gauge : section:string -> name:string -> (unit -> float) -> unit
val int_gauge : section:string -> name:string -> (unit -> int) -> unit
val histogram : section:string -> name:string -> Histogram.t
val table : section:string -> name:string -> (unit -> string) -> unit

val find : section:string -> name:string -> metric option

val value : section:string -> name:string -> float
(** The current reading of a registered counter or gauge.  Raises
    [Invalid_argument] if [(section, name)] is not registered or is a
    histogram or table, so a misspelled name fails instead of reading 0. *)

val to_json : ?sections:string list -> unit -> string
(** Export the registry (or just the named sections) as a JSON object
    [{section: {name: value, ...}, ...}]. Counters export as ints, gauges
    as floats, histograms as [{count; buckets: [[lo; hi; n], ...]}] with
    empty buckets elided, tables as their verbatim JSON fragment.
    Sections and names are emitted in sorted order, so the output is
    independent of registration order. *)

val reset : unit -> unit
(** Reset every registered counter and histogram (gauges and tables read
    live state and are unaffected). *)
