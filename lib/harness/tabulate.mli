(** Fixed-width text tables for experiment output. *)

val print_header : string -> unit
(** Boxed section title. *)

val print_row : string list -> widths:int list -> unit
val print_rule : widths:int list -> unit

val fmt_mbit : float -> string
val fmt_util : float -> string
