(** Adaptive send-path selection (single-copy vs. copying).

    The paper's measurements (and BENCH_macro) show the outboard
    single-copy path losing to the ordinary copying stack for small
    transfers: per-send VM pin/map and descriptor bookkeeping outweigh
    the saved copy until the message is large enough.  Rather than a
    fixed threshold, this layer routes each send from three cheap
    observables — message size, word alignment, and pin-cache warmth —
    around an online *cutover* estimate refined from observed per-path
    costs.

    Cost model: per-path EWMA cost tables bucketed by log2(size).  Every
    completed send reports its elapsed (simulated) cost back through
    {!observe}; the cutover is re-derived as the smallest bucket where
    the single-copy path is no more expensive than the copy path,
    clamped to [1 KByte, 1 MByte].  A periodic exploration
    probe sends an occasional message down the road not taken so both
    tables stay populated.

    The policy is {e bidirectional}: the receiver's per-bucket delivery
    cost (outboard copy-out vs. the 2-copy path) is tracked in a second
    pair of tables, fed either locally ({!observe_rx}) or from hints the
    peer piggybacks on its ACKs ({!feed_remote_rx}).  Once a bucket has
    receive-side evidence for both paths, the cutover compares the
    end-to-end (tx + rx) cost instead of sender cost alone.

    Every decision is counted; {!stats} exposes the full routing
    breakdown for benchmarks and tests. *)

(** Where a send is routed. *)
type route =
  | Uio  (** single-copy: pin/map + M_UIO descriptor, DMA from user memory *)
  | Copy  (** classic path: copy into kernel mbufs *)

(** Why it was routed there. *)
type reason =
  | Unaligned  (** buffer not word aligned — DMA engine cannot take it *)
  | Below_cutover  (** small message: copy is cheaper *)
  | Cold_pin  (** above cutover but the pin cache is cold and the size
                  does not clear the cold-start handicap *)
  | Above_cutover  (** big enough for the outboard path to win *)
  | Explore  (** periodic probe down the currently-losing path *)
  | Penalized
      (** would clear the cutover, but a fault-driven penalty has inflated
          the effective threshold — the adaptor is sick, stay on copy *)
  | Trivial
      (** far below the cutover (under a quarter of it): routed [Copy] by
          the early exit, skipping exploration and decision bookkeeping.
          Callers should not {!observe} these sends. *)

type stats = private {
  mutable uio_routed : int;
  mutable copy_routed : int;
  mutable unaligned : int;
  mutable below_cutover : int;
  mutable cold_pin : int;
  mutable above_cutover : int;
  mutable explored : int;
  mutable penalized : int;
  mutable trivial : int;  (** decisions taken by the small-send early exit *)
  mutable uio_observed : int;  (** completed sends reported for the Uio path *)
  mutable copy_observed : int;
  mutable rx_uio_observed : int;
      (** local receive-side copy-out cost samples *)
  mutable rx_copy_observed : int;
  mutable rx_feeds : int;  (** remote hints merged via {!feed_remote_rx} *)
  mutable cutover_bytes : int;  (** current online estimate *)
}

type t

val static_cutover : int
(** 16 KByte, the measured crossover: the smallest write the static
    routing rule sends down the single-copy path, and the seed of every
    policy's estimate. *)

val create : unit -> t
(** The estimate starts at {!static_cutover} and always stays within
    [1 KByte, 1 MByte].  Pin-cold buffers face twice the
    threshold: a cold send must amortize pin+map on this one transfer.
    Every 16th eligible decision is sent down the opposite path so the
    cost tables see both sides. *)

val decide : t -> len:int -> aligned:bool -> pin_warm:bool -> route * reason
(** Route one send.  Unaligned buffers always take [Copy] — exploration
    never overrides a correctness constraint. *)

val observe : t -> route:route -> len:int -> cost:Simtime.t -> unit
(** Report the observed end-to-end cost of a completed send; feeds the
    EWMA table for [route]'s size bucket and re-derives the cutover. *)

val observe_rx : t -> route:route -> len:int -> cost:Simtime.t -> unit
(** Report the observed cost of delivering a received chain of [len]
    bytes: [Uio] means the chain arrived outboard and was copied out of
    the CAB, [Copy] means it took the ordinary 2-copy path.  Feeds the
    receive-side EWMA tables and re-derives the cutover. *)

val feed_remote_rx : t -> bucket:int -> uio_us:float -> copy_us:float -> unit
(** Merge a receive-cost hint piggybacked by the peer: its smoothed
    per-bucket delivery cost in microseconds for each path, zero meaning
    "no sample yet" (skipped).  [bucket] is the log2 size-bucket index;
    out-of-range raises [Invalid_argument]. *)

val rx_hint : t -> len:int -> int * int * int
(** [(bucket, uio_us, copy_us)] — this host's outgoing receive-cost hint
    for the bucket containing [len]: rounded EWMA microseconds per path,
    zero when that path has no local samples.  Matches the wire format of
    the TCP [Rx_cost] option. *)

val cutover : t -> int
(** The current cutover estimate in bytes. *)

val penalize : t -> unit
(** Device-fault feedback: multiply the penalty by 8 (capped at 64).
    While the penalty is above 1 the effective Uio threshold is scaled by
    it, steering traffic onto the copy path; the penalty decays by a
    factor of 0.9 on every subsequent decision, so the cost spike ages
    out once the adaptor behaves again.  Decisions deflected this way are
    counted under {!stats}[.penalized] and carry reason {!Penalized}.
    The current penalty (1.0 = healthy) is the registry gauge
    [path_policy/penalty] (see {!register}). *)

val stats : t -> stats
(** The policy's live counter record (it keeps counting after the call);
    its [cutover_bytes] is the estimate {!cutover} reads. *)

val register : t -> unit
(** Publish this policy's decision counters (as gauges over the live
    instance) and its EWMA cost tables (as a lazy JSON table) in the
    {!Obs} registry under section ["path_policy"]; replaces
    any previously registered policy. *)
