(** Minimal Ethernet framing for the legacy copying device. *)

type t = { src : int; dst : int; ethertype : int }

val size : int
(** 14 *)

val make : src:int -> dst:int -> t
(** A header for an IPv4 payload (ethertype 0x0800). *)

val encode : t -> Bytes.t -> off:int -> unit
val decode : Bytes.t -> off:int -> (t, string) result
