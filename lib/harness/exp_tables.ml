type vm_fit = {
  op : string;
  base_us : float;
  per_page_us : float;
  paper_base : float;
  paper_per_page : float;
}

(* Least-squares fit of y = a + b x. *)
let linear_fit points =
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. points in
  let b = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let a = (sy -. (b *. sx)) /. n in
  (a, b)

let run_table2 ~profile =
  let space = Addr_space.create ~profile ~name:"table2" () in
  let page = profile.Host_profile.page_size in
  let measure op =
    List.map
      (fun n ->
        let region = Addr_space.alloc space (n * page) in
        let cost =
          match op with
          | `Pin -> Addr_space.pin space region
          | `Unpin ->
              ignore (Addr_space.pin space region);
              Addr_space.unpin space region
          | `Map -> Addr_space.map_into_kernel space region
        in
        (float_of_int n, Simtime.to_us cost))
      [ 1; 2; 4; 8; 16; 32 ]
  in
  let fit op name paper_base paper_per_page =
    let a, b = linear_fit (measure op) in
    { op = name; base_us = a; per_page_us = b; paper_base; paper_per_page }
  in
  [
    fit `Pin "Pin" 35. 29.;
    fit `Unpin "Unpin" 48. 3.9;
    fit `Map "Map" 6. 4.5;
  ]

let print_table2 fits =
  Tabulate.print_header
    "Table 2: cost (us) of VM operations, base + per-page (n pages)";
  let widths = [ 8; 12; 12; 14; 14 ] in
  Tabulate.print_row ~widths
    [ "op"; "base"; "per-page"; "paper base"; "paper/page" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun f ->
      Tabulate.print_row ~widths
        [
          f.op;
          Printf.sprintf "%.1f" f.base_us;
          Printf.sprintf "%.2f" f.per_page_us;
          Printf.sprintf "%.1f" f.paper_base;
          Printf.sprintf "%.2f" f.paper_per_page;
        ])
    fits

let api_str = function
  | Taxonomy.Copy_api -> "copy"
  | Taxonomy.Share_api -> "share"

let csum_str = function Taxonomy.Header -> "header" | Taxonomy.Trailer -> "trailer"

let buf_str = function
  | Taxonomy.No_buffering -> "none"
  | Taxonomy.Packet_buffer -> "packet"
  | Taxonomy.Outboard_buffer -> "outboard"

let mov_str = function
  | Taxonomy.Pio -> "PIO"
  | Taxonomy.Dma -> "DMA"
  | Taxonomy.Dma_csum -> "DMA+C"

let print_table1 ~profile =
  Tabulate.print_header
    "Table 1: host interface taxonomy (per-byte operations by class)";
  let widths = [ 6; 8; 9; 6; 16; 5; 6; 7; 9 ] in
  Tabulate.print_row ~widths
    [ "api"; "csum"; "buffer"; "move"; "operations"; "host"; "total";
      "1copy"; "est eff" ];
  Tabulate.print_rule ~widths;
  List.iter
    (fun (k : Taxonomy.klass) ->
      let eff = Taxonomy.estimated_efficiency profile k in
      Tabulate.print_row ~widths
        [
          api_str k.Taxonomy.api;
          csum_str k.Taxonomy.csum;
          buf_str k.Taxonomy.buffering;
          mov_str k.Taxonomy.movement;
          Format.asprintf "%a" Taxonomy.pp_ops k.Taxonomy.ops;
          string_of_int (Taxonomy.host_passes k);
          string_of_int (Taxonomy.total_passes k);
          (if Taxonomy.is_single_copy k then "yes" else "");
          Tabulate.fmt_mbit eff;
        ])
    (Taxonomy.all ());
  let cab = Taxonomy.cab_class in
  Printf.printf
    "\n  The CAB + sockets class (copy API, header csum, outboard, DMA+C):\n\
    \  ops = %s -> single copy = %b\n"
    (Format.asprintf "%a" Taxonomy.pp_ops cab.Taxonomy.ops)
    (Taxonomy.is_single_copy cab)

type analysis = {
  est_unmod_eff : float;
  est_smod_eff : float;
  unmod_per_byte_share : float;
  smod_per_byte_share : float;
  measured_unmod_eff : float option;
  measured_smod_eff : float option;
}

let run_analysis ?measured ~profile () =
  (* Per 32 KByte packet.  Unmodified: one copy plus one checksum read
     plus the per-packet overhead (§7.3). *)
  let packet = 32768 in
  let copy = Memcost.copy profile ~locality:Memcost.Cold packet in
  let read =
    Memcost.checksum_read profile
      ~locality:(Memcost.Working_set (512 * 1024))
      packet
  in
  let per_packet = Memcost.per_packet profile in
  let unmod_total = copy + read + per_packet in
  (* Single-copy: the copy and checksum are replaced by VM work on the
     packet's pages. *)
  let pages = packet / profile.Host_profile.page_size in
  let vm =
    Memcost.pin profile ~pages
    + Memcost.unpin profile ~pages
    + Memcost.map profile ~pages
  in
  let smod_total = vm + per_packet in
  let eff total = Simtime.rate_mbit ~bytes:packet total in
  let last_point () =
    Option.bind measured (fun (r : Exp_figures.report) ->
        match List.rev r.Exp_figures.points with
        | p :: _ -> Some p
        | [] -> None)
  in
  {
    est_unmod_eff = eff unmod_total;
    est_smod_eff = eff smod_total;
    unmod_per_byte_share =
      float_of_int (copy + read) /. float_of_int unmod_total;
    smod_per_byte_share = float_of_int vm /. float_of_int smod_total;
    measured_unmod_eff =
      Option.map (fun p -> p.Exp_figures.unmod_eff) (last_point ());
    measured_smod_eff =
      Option.map (fun p -> p.Exp_figures.smod_eff) (last_point ());
  }

let print_analysis a =
  Tabulate.print_header
    "Section 7.3 analysis: estimated stack efficiency from the cost model";
  Printf.printf
    "  unmodified : estimated %.0f Mbit/s (paper: ~180), per-byte share \
     %.0f%% (paper: 80%%)\n"
    a.est_unmod_eff
    (100. *. a.unmod_per_byte_share);
  Printf.printf
    "  single-copy: estimated %.0f Mbit/s (paper: ~490), per-byte share \
     %.0f%% (paper: 43%%)\n"
    a.est_smod_eff
    (100. *. a.smod_per_byte_share);
  (match (a.measured_unmod_eff, a.measured_smod_eff) with
  | Some u, Some m ->
      Printf.printf
        "  measured at 512K writes: unmodified %.0f, single-copy %.0f \
         Mbit/s\n"
        u m
  | _ -> ());
  print_newline ()
