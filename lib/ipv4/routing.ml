type entry = {
  prefix : Inaddr.t;
  len : int;
  gateway : Inaddr.t option;
  iface : Netif.t;
}

type t = {
  mutable routes : entry list;
  (* One-entry lookup memo: a host's transmit path asks for the same
     destination packet after packet.  [add_route]/[remove_route] clear
     it, so a memoised answer is always the table's current answer. *)
  mutable memo_valid : bool;
  mutable memo_dst : Inaddr.t;
  mutable memo : (Netif.t * Inaddr.t) option;
}

let create () =
  { routes = []; memo_valid = false; memo_dst = Inaddr.any; memo = None }

let invalidate t =
  t.memo_valid <- false;
  t.memo <- None

let add_route t ~prefix ~len ?gateway iface =
  if len < 0 || len > 32 then invalid_arg "Routing.add_route: prefix length";
  t.routes <- { prefix; len; gateway; iface } :: t.routes;
  invalidate t

let remove_route t ~prefix ~len =
  t.routes <-
    List.filter
      (fun e -> not (Inaddr.equal e.prefix prefix && e.len = len))
      t.routes;
  invalidate t

let resolve t dst =
  let best =
    List.fold_left
      (fun acc e ->
        if Inaddr.in_prefix ~prefix:e.prefix ~len:e.len dst then
          match acc with
          | Some b when b.len >= e.len -> acc
          | Some _ | None -> Some e
        else acc)
      None t.routes
  in
  Option.map
    (fun e ->
      (e.iface, match e.gateway with Some g -> g | None -> dst))
    best

let lookup t dst =
  if t.memo_valid && Inaddr.equal t.memo_dst dst then t.memo
  else begin
    let r = resolve t dst in
    t.memo_valid <- true;
    t.memo_dst <- dst;
    t.memo <- r;
    r
  end

let entries t = t.routes
