(** Deterministic, seed-driven fault injection.

    A process-global registry of string-keyed injection {e sites}.  Code
    on the datapath consults its site with {!fire} at the moment the
    modeled hardware could fail (an outboard allocation, an SDMA post, an
    interrupt line, a byte on the wire); the plan installed for that site
    decides whether the fault happens.

    Everything is deterministic: {!arm} seeds the plane, each site draws
    from its own SplitMix64 stream derived from [seed lxor hash site]
    (so the stream a site sees does not depend on the order sites are
    first consulted), and a re-{!arm} with the same seed replays the same
    faults against the same consult sequence.

    Cost discipline: when the plane is disarmed — the default, and the
    state every benchmark runs in — {!fire} is one load and one branch.
    Sites, counters and plans only exist while armed.

    Stats are published in the {!Obs} registry under section ["fault"]:
    total consults/fires as counters, and a ["sites"] table with the
    per-site plan, consult count and fire count. *)

type plan =
  | Off
  | Probability of float  (** fire each consult with probability [p] *)
  | Once_at of int  (** fire exactly once, on the [n]-th consult (1-based) *)
  | Every_n of int  (** fire on every [n]-th consult *)

val arm : seed:int -> unit
(** Enable injection.  Clears every site and plan from a previous arm,
    so a fresh [arm] + the same [plan] calls is a full replay. *)

val disarm : unit -> unit
(** Disable injection ({!fire} returns [false] unconditionally).  Site
    counters survive until the next {!arm}, so post-run reporting can
    still read the ["sites"] table. *)

val plan : site:string -> plan -> unit
(** Install a plan for [site].  Call after {!arm}; installing a plan on a
    disarmed plane raises [Invalid_argument] (the site streams are seeded
    by [arm]). *)

val fire : string -> bool
(** [fire site] — consult the site: [true] when the fault fires now.
    On a disarmed plane: [false], without creating the site. *)

val fire_at : string -> bound:int -> int option
(** [fire_at site ~bound] — like {!fire}, but a firing fault also draws a
    uniform position in [\[0, bound)] (e.g. the byte of a frame to
    corrupt).  [None] when the fault does not fire or [bound <= 0]. *)
