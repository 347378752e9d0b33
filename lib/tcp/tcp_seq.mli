(** 32-bit serial (mod 2^32) sequence-number arithmetic, RFC 793/1982. *)

type t = int
(** Always normalized into [0, 2^32). *)

val norm : int -> t
val add : t -> int -> t
val diff : t -> t -> int
(** Signed distance [a - b] in (-2^31, 2^31]. *)

val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool
val max : t -> t -> t

