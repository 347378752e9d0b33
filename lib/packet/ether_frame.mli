(** Minimal Ethernet framing for the legacy copying device. *)

type t = { src : int; dst : int; ethertype : int }

val size : int
(** 14 *)

val ethertype_ipv4 : int

val make : src:int -> dst:int -> t

val encode : t -> Bytes.t -> off:int -> unit
val decode : Bytes.t -> off:int -> (t, string) result
