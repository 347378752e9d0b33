let fig5_cache : Exp_figures.report option ref = ref None

let fig5 () =
  let report = Exp_figures.run ~profile:Host_profile.alpha400 () in
  fig5_cache := Some report;
  Exp_figures.print ~figure:"Figure 5" report;
  Exp_figures.plot_charts ~figure:"Figure 5" report;
  (match Exp_figures.crossover report with
  | Some (a, b) ->
      Printf.printf
        "\n  efficiency crossover between %dK and %dK writes (paper: between \
         8K and 16K)\n"
        (a / 1024) (b / 1024)
  | None -> Printf.printf "\n  no efficiency crossover found\n");
  Printf.printf
    "  single-copy/unmodified efficiency at 512K: %.2fx (paper: ~2.7x)\n"
    (Exp_figures.large_write_efficiency_ratio report)

let fig6 () =
  let report = Exp_figures.run ~profile:Host_profile.alpha300lx () in
  Exp_figures.print ~figure:"Figure 6" report;
  Exp_figures.plot_charts ~figure:"Figure 6" report;
  Printf.printf
    "\n  (half-speed host: the more efficient single-copy stack now wins on \
     throughput too)\n"

let analysis () =
  let measured =
    match !fig5_cache with
    | Some r -> r
    | None ->
        Exp_figures.run ~sizes:[ 524288 ] ~profile:Host_profile.alpha400 ()
  in
  Exp_tables.print_analysis
    (Exp_tables.run_analysis ~measured ~profile:Host_profile.alpha400 ())

let table =
  [
    ( "table1",
      fun () -> Exp_tables.print_table1 ~profile:Host_profile.alpha400 );
    ( "table2",
      fun () ->
        Exp_tables.print_table2
          (Exp_tables.run_table2 ~profile:Host_profile.alpha400) );
    ("fig5", fig5);
    ("fig6", fig6);
    ("analysis", analysis);
    ("hol", fun () -> Exp_hol.print (Exp_hol.run ()));
    ("alignment", fun () -> Exp_extras.print_alignment ());
    ("pincache", fun () -> Exp_extras.print_pin_cache ());
    ("autodma", fun () -> Exp_extras.print_autodma_sweep ());
    ("smallwrite", fun () -> Exp_extras.print_small_write_policies ());
    ("interop", fun () -> Exp_extras.print_interop ());
    ( "incast",
      fun () ->
        Exp_incast.print (Exp_incast.run ~mode:Stack_mode.Unmodified ());
        Exp_incast.print (Exp_incast.run ~mode:Stack_mode.Single_copy ()) );
    ( "allpairs",
      fun () -> Exp_incast.print_all_pairs (Exp_incast.run_all_pairs ()) );
    ("scaling", fun () -> Exp_scaling.print (Exp_scaling.run ()));
    ("netmem", fun () -> Exp_netmem.print (Exp_netmem.run ()));
    ("serverapi", fun () -> Exp_serverapi.print (Exp_serverapi.run ()));
    ("rpc", fun () -> Exp_rpc.print (Exp_rpc.run ()));
    ("window", fun () -> Exp_window.print (Exp_window.run ()));
  ]

let paper = [ "table1"; "table2"; "fig5"; "fig6"; "analysis"; "hol" ]
let all = List.map fst table
let find name = List.assoc_opt name table
