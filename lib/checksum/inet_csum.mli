(** Internet (ones-complement) checksum arithmetic, RFC 1071 style.

    The unfolded accumulator type [sum] supports the incremental operations
    the paper's offload scheme needs: summing disjoint byte ranges,
    concatenating sums (with odd-length parity handling), subtracting a
    range back out, and folding to the final 16-bit field value.

    Words are interpreted big-endian, as on the wire.  An odd trailing byte
    is padded with a zero low byte. *)

type sum
(** Unfolded ones-complement accumulator. *)

val zero : sum

val of_bytes : ?off:int -> ?len:int -> Bytes.t -> sum
(** Sum of a byte range ([off] defaults to 0, [len] to the rest).
    Word-at-a-time: one up-front bounds check, then 64-bit reads into a
    wide accumulator with a single deferred fold. *)

val of_slice : Bytes.t -> off:int -> len:int -> sum
(** {!of_bytes} with plain arguments, for per-segment paths: an optional
    argument is boxed at every call the compiler does not inline. *)

val reference_of_bytes : ?off:int -> ?len:int -> Bytes.t -> sum
(** Byte-at-a-time reference implementation of {!of_bytes}, retained as
    the oracle for property tests.  Bit-identical to [of_bytes] on every
    input; an order of magnitude slower. *)

val copy_and_sum :
  src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> len:int -> sum
(** Fused copy + checksum: blits [len] bytes from [src] to [dst] and
    returns their ones-complement sum in the same pass — the software
    image of the CAB DMA engines, which checksum words as they stream
    through (§2.1).  The sum's parity is relative to the range start (the
    first byte is the high byte of the first 16-bit word); combine
    cross-range with {!concat}.  Overlapping ranges within one buffer are
    handled like [Bytes.blit] (memmove semantics). *)

val add : sum -> sum -> sum
(** Combine two sums over ranges that both start at even offsets. *)

val concat : first_len:int -> sum -> sum -> sum
(** [concat ~first_len a b] is the sum of range A followed by range B where
    A has [first_len] bytes: when [first_len] is odd the bytes of B are
    byte-swapped before adding, preserving the wire-order interpretation. *)

val add_u16 : sum -> int -> sum
(** Add one 16-bit big-endian word. *)

val fold : sum -> int
(** Fold to 16 bits (no complement). *)

val finish : sum -> int
(** Fold and complement: the value stored in a TCP/UDP checksum field.
    Never returns 0xFFFF-complement anomalies; plain RFC 793 semantics. *)

val is_valid : sum -> bool
(** True when a sum computed over a packet *including* its checksum field
    folds to 0xFFFF — i.e. the packet verifies. *)

val pseudo_header : src:int32 -> dst:int32 -> proto:int -> len:int -> sum
(** RFC 793 pseudo-header sum for TCP/UDP over IPv4. *)
