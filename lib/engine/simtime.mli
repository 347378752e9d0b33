(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation.  63-bit native ints give ~146 years of range, far beyond any
    experiment here.  All simulator components share this unit so that cost
    models (microseconds in the paper) and link rates (bytes/second) compose
    without conversion mistakes. *)

type t = int
(** Nanoseconds. *)

val zero : t
val ns : int -> t
val us : float -> t
val ms : float -> t
val s : float -> t

val to_us : t -> float
val to_ms : t -> float
val to_s : t -> float

val add : t -> t -> t
val sub : t -> t -> t

val of_bytes_at_rate : bytes_per_s:float -> int -> t
(** [of_bytes_at_rate ~bytes_per_s n] is the time needed to move [n] bytes
    at the given rate.  Rounds up to a whole nanosecond so that zero-cost
    transfers cannot occur for [n > 0]. *)

val rate_mbit : bytes:int -> t -> float
(** [rate_mbit ~bytes elapsed] is the throughput in Mbit/s achieved by
    moving [bytes] in [elapsed] (paper figures use Mbit/s).  Returns [0.]
    when [elapsed] is zero. *)

val pp : Format.formatter -> t -> unit
(** Prints a human-readable time, choosing ns/us/ms/s by magnitude. *)
