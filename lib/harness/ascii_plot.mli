(** Minimal ASCII line charts for the bench output — the figures of the
    paper, drawn in the terminal. *)

val plot :
  ?height:int ->
  title:string ->
  x_labels:string list ->
  series:(char * string * float list) list ->
  unit ->
  unit
(** Each series is (mark, legend, values); all series share [x_labels]
    positions across 64 columns.  Y is in Mbit/s, from zero. *)
