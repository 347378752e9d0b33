(** Per-flow latency histograms (section ["lat"] in the Obs registry).

    Process-global log2 histograms of simulated-clock latencies, in
    nanoseconds.  The instrumented layers (TCP, sockets, the copy-out
    path) stamp a start time and observe the delta when the completion
    event fires; both hosts of a testbed share the same histograms. *)

val conn_setup_ns : Obs.Histogram.t
(** Active open: [connect] (SYN sent) to ESTABLISHED; passive open:
    SYN received to ESTABLISHED.  A connection a listener promotes from a
    SYN cookie is not observed: the cookie keeps no SYN timestamp. *)

val write_ack_ns : Obs.Histogram.t
(** [Socket.write] accepting a byte range to the ACK covering it
    (single-slot sampling per connection, Karn-style: only one write is
    timed at a time and retransmitted ranges are discarded). *)

val rx_copyout_ns : Obs.Histogram.t
(** Receive copy-out: work item posted to the copy engine to delivery
    into the application buffer. *)

val rtt_ns : Obs.Histogram.t
(** TCP RTT samples, as fed to the RTO estimator. *)

val accept_ns : Obs.Histogram.t
(** Listener accept queue residency: connection promoted to ESTABLISHED
    to the application's [Tcp.accept] dequeuing it. *)

val all : (string * Obs.Histogram.t) list
(** The histograms with their registry names. *)

val reset : unit -> unit
(** Reset all histograms (bench harnesses call this after warm-up so
    percentiles cover only measured iterations). *)

val summary_json : unit -> string
(** JSON object mapping each latency site name to its
    {!quantiles_json}. *)
