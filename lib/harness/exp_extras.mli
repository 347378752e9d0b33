(** Experiments beyond the paper's headline figures: the §4.5 alignment
    fallback, §4.4.1 pinned-buffer amortization, and ablations of design
    choices DESIGN.md calls out. *)

val print_alignment : unit -> unit
(** Aligned versus deliberately misaligned application buffers on the
    single-copy stack: throughput, efficiency and the fallback counters. *)

val print_pin_cache : unit -> unit
(** Single-copy ttcp with the pinned-buffer cache on and off; also the
    microbenchmark of acquire costs under buffer reuse versus cycling. *)

val print_autodma_sweep : unit -> unit
(** Receiver efficiency as a function of the auto-DMA threshold L. *)

val print_interop : unit -> unit
(** The four §5 interoperability scenarios on a host with both a CAB and
    an Ethernet: data moves correctly and the conversion shims fire where
    expected. *)

val print_small_write_policies : unit -> unit
(** Ablation: single-copy stack with/without fallback-to-copy for small
    writes (§4.4.3), across small write sizes. *)
