(* Readers for the text the library prints, shared by the tests that
   check a value only a dump exposes. *)

(* The events the trace ring holds, oldest first, read back from its
   Chrome export as (event name, a, b). *)
let trace_events () =
  Obs_trace.to_chrome () |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         try
           Scanf.sscanf line
             {| {"name": "%s@", "ph": "i", "s": "g", "pid": 1, "tid": 1, "ts": %f, "args": {"a": %d, "b": %d}}|}
             (fun name _ a b -> Some (name, a, b))
         with Scanf.Scan_failure _ | End_of_file -> None)

(* A capture's printed entries, in arrival order: time in ns (as
   printed, so rounded), direction ("send" or "recv") and summary. *)
let capture cap =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Capture.dump fmt cap;
  Format.pp_print_flush fmt ();
  let ns v = function
    | "ns" -> v
    | "us" -> v *. 1e3
    | "ms" -> v *. 1e6
    | _ -> v *. 1e9
  in
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         Scanf.sscanf line "[%f%[a-z]] %s %s %dB %[^\n]"
           (fun v unit _iface dir _len summary -> (ns v unit, dir, summary)))

(* A TCP summary's (seq, ack, len); [None] for any other packet. *)
let tcp_segment summary =
  try
    Scanf.sscanf summary
      "IP %_s > %_s TCP %_d>%_d [%_[^]]] seq=%d ack=%d win=%_d len=%d"
      (fun seq ack len -> Some (seq, ack, len))
  with Scanf.Scan_failure _ | End_of_file -> None

(* [field] ("consults" or "fires") of [site] in the registry's
   fault/sites table, whose entries read
   [{"site": S, "plan": P, "consults": C, "fires": F}]; 0 for a site not
   yet consulted. *)
let fault_site ~site field =
  match Obs.find ~section:"fault" ~name:"sites" with
  | Some (Obs.M_table json) -> (
      let s = json () and entry = Printf.sprintf {|{"site": %S,|} site in
      match Astring.String.find_sub ~sub:entry s with
      | None -> 0
      | Some i ->
          let key = Printf.sprintf {|"%s": |} field in
          let j = Option.get (Astring.String.find_sub ~start:i ~sub:key s) in
          let rest =
            Astring.String.with_index_range ~first:(j + String.length key) s
          in
          Scanf.sscanf rest "%d" Fun.id)
  | _ -> invalid_arg "fault/sites table not registered"
