(** The paper's motivating trend, §1: "the per-byte cost depends strongly
    on the memory bandwidth, which over time has not increased as quickly
    as CPU speed.  As a result, it is mainly the per-byte costs that make
    high speed communication expensive."

    This experiment extrapolates: derive hosts from the alpha400 whose
    *CPU-bound* costs (per-packet protocol path, syscalls, interrupts,
    ACK processing, VM operations) shrink by a factor f while the memory
    system (copy/checksum bandwidths) stays fixed, and measure both
    stacks' efficiency.  The unmodified stack plateaus against the memory
    wall; the single-copy stack keeps scaling. *)

type row = {
  cpu_factor : float;
  unmod_eff : float;
  smod_eff : float;
  advantage : float;  (** smod/unmod *)
}

val run : ?factors:float list -> ?total:int -> unit -> row list
(** 512 KByte writes.  Defaults: factors 1/2/4/8, 8 MByte per run. *)

val print : row list -> unit
