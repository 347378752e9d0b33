(** TCP header encode/decode, including the RFC 1323 window-scale option
    and the MSS option carried on SYN segments.

    [encode] leaves the checksum field holding whatever the caller
    requests: the fully computed checksum on the host-checksummed path, or
    the offload *seed* on the single-copy path (§4.3). *)

type flag = FIN | SYN | RST | PSH | ACK | URG

type option_ =
  | Mss of int
  | Window_scale of int
  | Rx_cost of { bucket : int; uio_us : int; copy_us : int }
      (** experimental kind 14, length 12: the receiver's smoothed
          delivery cost (microseconds, 0 = no sample) for the log2 size
          [bucket], one value per path (outboard copy-out vs. 2-copy).
          Piggybacked on pure ACKs to make the sender's path policy
          bidirectional; unknown to real stacks, ignored if unparsed. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int;  (** 32-bit sequence number, kept in an int *)
  ack : int;
  flags : flag list;
  window : int;  (** raw 16-bit field, before scaling *)
  urgent : int;
  options : option_ list;
}

val base_size : int
(** 20 bytes without options. *)

val size : t -> int
(** Header size including (padded) options — a multiple of 4. *)

val options_size : option_ list -> int
(** Encoded size of an option list, padded to a word boundary. *)

val has : flag -> t -> bool

val flag_bits : flag list -> int
(** The flags byte (offset 13) for a flag list. *)

val make :
  ?flags:flag list ->
  ?window:int ->
  ?urgent:int ->
  ?options:option_ list ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  unit ->
  t

val encode : t -> csum:int -> Bytes.t -> off:int -> unit
val decode : Bytes.t -> off:int -> len:int -> (t, string) result
(** [decode buf ~off ~len] returns the header; the raw checksum field
    stays in [buf] at {!csum_field_offset}.  [len] is the number of bytes
    available (for truncation checks).  An optionless header allocates
    only its record and the [Ok]: the flag list is shared. *)

val csum_field_offset : int
(** Byte offset of the checksum field within the TCP header (16). *)

val pp : Format.formatter -> t -> unit
