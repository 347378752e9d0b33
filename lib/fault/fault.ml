type plan =
  | Off
  | Probability of float
  | Once_at of int
  | Every_n of int

type point = {
  mutable p : plan;
  rng : Rng.t;
  mutable consults : int;
  mutable fires : int;
}

(* The disarmed fast path is one load + one branch on this flag; nothing
   below it runs while a benchmark is measuring. *)
let armed_flag = ref false
let seed0 = ref 0
let points : (string, point) Hashtbl.t = Hashtbl.create 16

let total_consults = Obs.counter ~section:"fault" ~name:"consults"
let total_fires = Obs.counter ~section:"fault" ~name:"fires"

let arm ~seed =
  Hashtbl.reset points;
  Obs.Counter.reset total_consults;
  Obs.Counter.reset total_fires;
  seed0 := seed;
  armed_flag := true

let disarm () = armed_flag := false

(* Per-site streams are derived from the arm seed and the site name, not
   from consult order: two runs that consult sites in different orders
   still give each site the same fault sequence. *)
let point_of site =
  match Hashtbl.find_opt points site with
  | Some pt -> pt
  | None ->
      let pt =
        {
          p = Off;
          rng = Rng.create ~seed:(!seed0 lxor Hashtbl.hash site);
          consults = 0;
          fires = 0;
        }
      in
      Hashtbl.replace points site pt;
      pt

let plan ~site p =
  if not !armed_flag then
    invalid_arg "Fault.plan: plane is disarmed (call Fault.arm first)";
  (match p with
  | Probability pr when pr < 0.0 || pr > 1.0 ->
      invalid_arg "Fault.plan: probability out of [0, 1]"
  | Once_at n when n <= 0 -> invalid_arg "Fault.plan: once_at must be >= 1"
  | Every_n n when n <= 0 -> invalid_arg "Fault.plan: every_n must be >= 1"
  | _ -> ());
  (point_of site).p <- p

let consult site =
  let pt = point_of site in
  pt.consults <- pt.consults + 1;
  Obs.Counter.incr total_consults;
  let hit =
    match pt.p with
    | Off -> false
    | Probability p -> Rng.float pt.rng 1.0 < p
    | Once_at n -> pt.consults = n
    | Every_n n -> pt.consults mod n = 0
  in
  if hit then begin
    pt.fires <- pt.fires + 1;
    Obs.Counter.incr total_fires
  end;
  (pt, hit)

let fire site = !armed_flag && snd (consult site)

let fire_at site ~bound =
  if not !armed_flag then None
  else
    match consult site with
    | pt, true when bound > 0 -> Some (Rng.int pt.rng bound)
    | _, _ -> None

let sites () =
  Hashtbl.fold (fun site pt acc -> (site, pt.p, pt.consults, pt.fires) :: acc)
    points []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

let plan_json = function
  | Off -> {|"off"|}
  | Probability p -> Printf.sprintf {|{"probability": %g}|} p
  | Once_at n -> Printf.sprintf {|{"once_at": %d}|} n
  | Every_n n -> Printf.sprintf {|{"every_n": %d}|} n

let () =
  Obs.table ~section:"fault" ~name:"sites" (fun () ->
      let b = Buffer.create 128 in
      Buffer.add_char b '[';
      List.iteri
        (fun i (site, p, c, f) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf
               {|{"site": %S, "plan": %s, "consults": %d, "fires": %d}|} site
               (plan_json p) c f))
        (sites ());
      Buffer.add_char b ']';
      Buffer.contents b)
