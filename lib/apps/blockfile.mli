(** A block-file RPC protocol — the "IO intensive in-kernel application"
    of §5 made concrete.

    The server holds a simulated buffer cache of fixed-size blocks and
    answers read requests; block data lives in kernel buffers, so
    responses go out with share semantics (single-copy over the CAB).
    The client is a user-level program on the sockets API reading into
    its own buffer (single-copy receive).

    Wire format, all on one TCP stream:
    - request: 12 bytes [magic "RQ"; opcode u16; block u32; len u32]
    - response: 12 bytes [magic "RS"; status u16; block u32; len u32],
      then [len] bytes of data. *)

val block_size : int
(** 32 KBytes. *)

type server_stats = private {
  mutable requests : int;
  mutable blocks_served : int;
  mutable bytes_served : int;
  mutable bad_requests : int;
}

val serve :
  stack:Netstack.t -> port:int -> blocks:int -> unit -> server_stats
(** Starts an in-kernel block server with [blocks] cached blocks (block
    [i] is filled with a deterministic pattern seeded by [i]).  Returns
    the server's live counter record. *)

type client = {
  mutable reads : int;
  mutable read_errors : int;
  latencies : Obs.Histogram.t;  (** per-read RPC latency (ns) *)
}

val connect :
  stack:Netstack.t ->
  server:Inaddr.t ->
  port:int ->
  ?paths:Socket.path_config ->
  on_ready:(client -> (int -> ok:(Region.t -> unit) -> unit) -> unit) ->
  unit ->
  unit
(** Connects a user-level client.  [on_ready client read_block] hands back
    a reader: [read_block i ~ok] fetches block [i] into a fresh buffer and
    calls [ok buf] when the data (pattern-verified) has arrived.  Reads
    must be issued sequentially (one outstanding request per client). *)

val expected_block : int -> Region.t -> bool
(** Does the buffer hold block [i]'s pattern? *)
