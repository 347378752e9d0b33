(** Figures 5 and 6: throughput, utilization and efficiency as a function
    of read/write size, for the unmodified stack, the single-copy stack
    and raw HIPPI, on a given host profile. *)

type point = {
  wsize : int;
  unmod_tp : float;
  unmod_util : float;
  unmod_eff : float;
  smod_tp : float;  (** single-copy (modified) stack *)
  smod_util : float;
  smod_eff : float;
  raw_tp : float;
  unmod_rx_util : float;
  smod_rx_util : float;
}

type report = { profile : Host_profile.t; points : point list }

val run :
  ?sizes:int list -> ?min_total:int -> profile:Host_profile.t -> unit -> report
(** [min_total] (default 2 MByte) bounds the bytes moved per point; larger
    write sizes transfer at least 32 writes. *)

val print : figure:string -> report -> unit

val plot_charts : figure:string -> report -> unit
(** ASCII renditions of the figure's (a) and (c) panels. *)

val crossover : report -> (int * int) option
(** The pair of adjacent sizes between which the single-copy stack's
    efficiency overtakes the unmodified stack's (the paper: between 8K
    and 16K). *)

val large_write_efficiency_ratio : report -> float
(** modified/unmodified efficiency at the largest size (paper: ~3x). *)
