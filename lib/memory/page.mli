(** Page arithmetic helpers.

    Host pages on the simulated Alpha are 8 KByte; the CAB formats packets
    on 4 KByte network-memory pages.  All helpers take the page size as an
    argument so both units share the code. *)

val host_page_size : int
(** 8192 — DEC Alpha page size. *)

val cab_page_size : int
(** 4096 — CAB network-memory page size. *)

val count : page_size:int -> base:int -> len:int -> int
(** Number of pages spanned by the byte range [base, base+len). *)

val round_up : page_size:int -> int -> int
