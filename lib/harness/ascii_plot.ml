let width = 64

let plot ?(height = 16) ~title ~x_labels ~series () =
  let n = List.length x_labels in
  if n = 0 then ()
  else begin
    let max_v =
      List.fold_left
        (fun acc (_, _, vs) -> List.fold_left max acc vs)
        1e-9 series
    in
    let col_of i = if n = 1 then 0 else i * (width - 1) / (n - 1) in
    let row_of v =
      let r = int_of_float (v /. max_v *. float_of_int (height - 1)) in
      min (height - 1) (max 0 r)
    in
    let grid = Array.make_matrix height width ' ' in
    List.iter
      (fun (mark, _, vs) ->
        (* Connect consecutive points with linear interpolation. *)
        let pts = List.mapi (fun i v -> (col_of i, row_of v)) vs in
        let rec draw = function
          | (c0, r0) :: ((c1, r1) :: _ as rest) ->
              for c = c0 to c1 do
                let r =
                  if c1 = c0 then r0
                  else r0 + ((r1 - r0) * (c - c0) / (c1 - c0))
                in
                grid.(height - 1 - r).(c) <- mark
              done;
              draw rest
          | [ (c, r) ] -> grid.(height - 1 - r).(c) <- mark
          | [] -> ()
        in
        draw pts)
      series;
    Printf.printf "\n  %s\n" title;
    Array.iteri
      (fun i row ->
        let y_val =
          max_v *. float_of_int (height - 1 - i) /. float_of_int (height - 1)
        in
        Printf.printf "  %8.0f |%s|\n" y_val (String.init width (Array.get row)))
      grid;
    Printf.printf "  %8s +%s+\n" "Mb/s" (String.make width '-');
    (* X labels, spread under their columns. *)
    let line = Bytes.make (width + 12) ' ' in
    List.iteri
      (fun i lbl ->
        let c = 12 + col_of i in
        let lbl = if String.length lbl > 5 then String.sub lbl 0 5 else lbl in
        let start = min (Bytes.length line - String.length lbl) c in
        Bytes.blit_string lbl 0 line start (String.length lbl))
      x_labels;
    print_endline (Bytes.to_string line);
    List.iter
      (fun (mark, legend, _) -> Printf.printf "  %c = %s\n" mark legend)
      series
  end
