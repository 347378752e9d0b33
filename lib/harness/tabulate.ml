let print_header title =
  let n = String.length title in
  let bar = String.make (n + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" bar title bar

let pad s w =
  let n = String.length s in
  if n >= w then s else String.make (w - n) ' ' ^ s

let print_row cells ~widths =
  let rec go cells widths =
    match (cells, widths) with
    | [], _ -> ()
    | c :: cs, w :: ws ->
        print_string (pad c w);
        print_string "  ";
        go cs ws
    | c :: cs, [] ->
        print_string c;
        print_string "  ";
        go cs []
  in
  go cells widths;
  print_newline ()

let print_rule ~widths =
  let total = List.fold_left (fun a w -> a + w + 2) 0 widths in
  print_endline (String.make total '-')

let fmt_mbit v = Printf.sprintf "%.1f" v
let fmt_util v = Printf.sprintf "%.3f" v
