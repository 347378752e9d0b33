(** Deterministic pseudo-random numbers (SplitMix64).

    The simulator never uses the global [Random] state: every stochastic
    component owns an [Rng.t] seeded from the experiment configuration, so
    runs are reproducible and independent components do not perturb each
    other's streams. *)

type t

val create : seed:int -> t

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)
