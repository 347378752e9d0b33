(** §2.1: head-of-line blocking in the HIPPI switch — FIFO MAC versus the
    CAB's logical channels, under saturating uniform-random traffic. *)

type row = { ports : int; fifo_util : float; lc_util : float }

type report = row list

val run : unit -> report
(** 32 KB frames of uniform-random traffic from one fixed seed on 2 to
    32 ports, so every front end prints the same table. *)

val print : report -> unit
