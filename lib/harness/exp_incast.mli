(** Fan-in (incast) scaling: N senders stream to one receiver through a
    HIPPI switch.

    Beyond the paper's two-host tests, this shows where the receive-side
    savings of the single-copy stack matter: on the slower host the
    unmodified receiver saturates its CPU below the adaptor's wire rate,
    while the single-copy receiver stays wire-limited with CPU to spare. *)

type row = {
  senders : int;
  aggregate_mbit : float;
  rx_util : float;
  rx_efficiency : float;
}

type report = { mode : Stack_mode.t; rows : row list }

val run :
  ?senders_list:int list ->
  ?per_sender:int ->
  mode:Stack_mode.t ->
  unit ->
  report
(** alpha300lx hosts.  Defaults: N in 1/2/4/8, 2 MByte per sender. *)

val print : report -> unit

(** All-to-all traffic through a deliberately slow switch fabric: every
    host streams to every other host and the output ports saturate.  With
    FIFO input queues the adaptor suffers the §2.1 head-of-line problem;
    with logical channels (the CAB's per-destination queues) the fabric
    stays busy. *)

type allpairs_row = {
  hosts : int;
  fifo_aggregate_mbit : float;
  lc_aggregate_mbit : float;
}

val run_all_pairs :
  ?hosts_list:int list -> ?per_flow:int -> unit -> allpairs_row list
(** alpha400 hosts.  Defaults: 2, 4 and 6 hosts, 1 MByte per flow. *)

val print_all_pairs : allpairs_row list -> unit
