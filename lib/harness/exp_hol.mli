(** §2.1: head-of-line blocking in the HIPPI switch — FIFO MAC versus the
    CAB's logical channels, under saturating uniform-random traffic. *)

type row = { ports : int; fifo_util : float; lc_util : float }

type report = row list

val run : ?ports_list:int list -> ?frame_bytes:int -> unit -> report
(** Uniform-random traffic from one fixed seed, so every front end prints
    the same table. *)

val print : report -> unit
