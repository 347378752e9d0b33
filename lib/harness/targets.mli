(** The printed experiment targets, shared by [bench/main.exe] and
    [nectar reproduce]: the paper's tables and figures, then the extra
    experiments DESIGN.md lists.  Each target prints its report to
    stdout; every one is deterministic. *)

val paper : string list
(** The paper's tables and figures, in print order. *)

val all : string list
(** {!paper} followed by every extra experiment. *)

val find : string -> (unit -> unit) option
(** The target named so, if there is one.  [analysis] reuses the
    Figure 5 report when [fig5] ran earlier in the same process, and
    otherwise measures the 512 KByte point on its own. *)
