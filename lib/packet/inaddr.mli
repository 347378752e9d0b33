(** IPv4 addresses. *)

type t = int32

val v : int -> int -> int -> int -> t
(** [v 10 0 0 1] is 10.0.0.1. *)

val to_string : t -> string
val equal : t -> t -> bool

val any : t
(** 0.0.0.0 — the wildcard address. *)

val loopback : t
(** 127.0.0.1 *)

val in_prefix : prefix:t -> len:int -> t -> bool
(** [in_prefix ~prefix ~len a]: does [a] fall inside [prefix/len]? *)
