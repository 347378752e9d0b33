(** A contiguous region of simulated host memory.

    Regions carry real bytes (so checksums and data-integrity checks operate
    on actual data) plus a virtual base address (so alignment restrictions
    and page accounting behave as on the real machine). *)

type t

val create : vaddr:int -> int -> t
(** [create ~vaddr len] is a zero-filled region of [len] bytes whose first
    byte lives at virtual address [vaddr]. *)

val of_bytes : vaddr:int -> Bytes.t -> t

val vaddr : t -> int
val length : t -> int
val bytes : t -> Bytes.t
(** The backing store.  Offset 0 of the result corresponds to [vaddr].
    Copies ([Bytes.sub]) when the region is a sub-view of a larger buffer —
    use {!backing} on a data path. *)

val backing : t -> Bytes.t * int
(** [(buf, pos)] such that region byte [i] is [Bytes.get buf (pos + i)].
    Zero-copy, unlike {!bytes}: the buffer is the real backing store and
    may extend beyond the region on both sides, so callers must stay
    within [pos, pos + length t). *)

val sub : t -> off:int -> len:int -> t
(** A view of [len] bytes starting [off] into the region; shares backing
    storage with the parent.  Raises [Invalid_argument] when out of
    range. *)

val blit_to_bytes : t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
val blit_from_bytes : Bytes.t -> src_off:int -> t -> dst_off:int -> len:int -> unit

(** {2 Fused copy + checksum}

    One-pass blit + ones-complement sum of the bytes moved (see
    {!Inet_csum.copy_and_sum}): the software analogue of the CAB DMA
    engines checksumming words as they stream through. *)

val blit_csum_to_bytes :
  t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> Inet_csum.sum

val sum : t -> off:int -> len:int -> Inet_csum.sum
(** Ones-complement sum of [len] region bytes from [off], read in place:
    no copy and no allocation. *)

val fill_pattern : t -> seed:int -> unit
(** Deterministic pattern fill, used by workloads to verify end-to-end data
    integrity. *)

val equal_contents : t -> t -> bool

val pages : page_size:int -> t -> int
(** Number of pages the region spans (by virtual address). *)

val is_word_aligned : t -> bool
(** True when the virtual base address is 32-bit-word aligned — the CAB DMA
    restriction of §4.5. *)
