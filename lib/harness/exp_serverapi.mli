(** Table 1, live: copy-semantics versus share-semantics servers on the
    same single-copy hardware.

    A user-level file server uses the sockets API (copy semantics): with
    outboard buffering its data still moves only once, but it pays the VM
    pin/map work and syscall crossings.  An in-kernel server (share
    semantics — its buffers *are* the mbufs) pays neither.  Table 1 says
    both classes are "single copy"; this experiment shows the residual
    price of the copy API, which is exactly the §4.4.1 VM overhead. *)

type row = {
  api : string;
  throughput_mbit : float;
  server_util : float;
  server_eff : float;
}

val run : unit -> row list
(** 8 MByte served in 32 KByte blocks, once per API. *)

val print : row list -> unit
