(** Tables 1 and 2 and the §7.3 analytic model. *)

(** Table 2: cost of VM operations measured through the VM subsystem and
    fitted to base + per-page form. *)
type vm_fit = {
  op : string;
  base_us : float;
  per_page_us : float;
  paper_base : float;
  paper_per_page : float;
}

val run_table2 : profile:Host_profile.t -> vm_fit list
val print_table2 : vm_fit list -> unit

val print_table1 : profile:Host_profile.t -> unit
(** The host-interface taxonomy with per-class op sequences, pass counts
    and model efficiencies. *)

(** §7.3: estimated efficiency of both stacks from the cost model, and the
    per-byte share of total overhead. *)
type analysis = {
  est_unmod_eff : float;  (** paper: ~180 Mbit/s *)
  est_smod_eff : float;  (** paper: ~490 Mbit/s *)
  unmod_per_byte_share : float;  (** paper: ~80% *)
  smod_per_byte_share : float;  (** paper: ~43% *)
  measured_unmod_eff : float option;
  measured_smod_eff : float option;
}

val run_analysis :
  ?measured:Exp_figures.report -> profile:Host_profile.t -> unit -> analysis

val print_analysis : analysis -> unit
