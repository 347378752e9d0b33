(* Process-wide wired-page tally across every address space: the soak
   harness diffs this gauge against its baseline to prove pin/unpin
   balance after a fault storm. *)
let total_pinned = ref 0

let () =
  Obs.gauge ~section:"addr_space" ~name:"pinned_pages" (fun () ->
      float_of_int !total_pinned)

let agg_pin_failures = Obs.counter ~section:"addr_space" ~name:"pin_failures"

type t = {
  profile : Host_profile.t;
  name : string;
  mutable brk : int;  (* next free virtual address *)
  pins : (int, int) Hashtbl.t;  (* page index -> pin refcount *)
}

let create ~profile ~name =
  {
    profile;
    name;
    (* Start away from address zero so a vaddr of 0 in a test is clearly a
       bug, and on a page boundary. *)
    brk = 16 * profile.Host_profile.page_size;
    pins = Hashtbl.create 64;
  }

let name t = t.name
let profile t = t.profile

let alloc t ?align len =
  let align =
    match align with Some a -> a | None -> t.profile.Host_profile.page_size
  in
  if align <= 0 then invalid_arg "Addr_space.alloc: align must be positive";
  let base = Page.round_up ~page_size:align t.brk in
  t.brk <- base + len;
  Region.create ~vaddr:base len

let alloc_at_offset t ~page_offset len =
  let page_size = t.profile.Host_profile.page_size in
  if page_offset < 0 || page_offset >= page_size then
    invalid_arg "Addr_space.alloc_at_offset: offset out of page";
  let base = Page.round_up ~page_size t.brk + page_offset in
  t.brk <- base + len;
  Region.create ~vaddr:base len

let pages_of t region =
  let page_size = t.profile.Host_profile.page_size in
  let base = Region.vaddr region and len = Region.length region in
  if len = 0 then []
  else
    let first = base / page_size and last = (base + len - 1) / page_size in
    List.init (last - first + 1) (fun i -> first + i)

let pin t region =
  let pages = pages_of t region in
  List.iter
    (fun p ->
      let c = Option.value ~default:0 (Hashtbl.find_opt t.pins p) in
      if c = 0 then incr total_pinned;
      Hashtbl.replace t.pins p (c + 1))
    pages;
  Memcost.pin t.profile ~pages:(List.length pages)

let try_pin t region =
  if Fault.fire "vm.pin_fail" then begin
    Obs.Counter.incr agg_pin_failures;
    Error `Pin_exhausted
  end
  else Ok (pin t region)

let unpin t region =
  let pages = pages_of t region in
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.pins p with
      | None | Some 0 ->
          invalid_arg
            (Printf.sprintf "Addr_space.unpin(%s): page %d not pinned" t.name p)
      | Some 1 ->
          decr total_pinned;
          Hashtbl.remove t.pins p
      | Some c -> Hashtbl.replace t.pins p (c - 1))
    pages;
  Memcost.unpin t.profile ~pages:(List.length pages)

let map_into_kernel t region =
  let pages = List.length (pages_of t region) in
  Memcost.map t.profile ~pages

let is_pinned t region =
  List.for_all
    (fun p ->
      match Hashtbl.find_opt t.pins p with
      | Some c when c > 0 -> true
      | Some _ | None -> false)
    (pages_of t region)

let pinned_pages t =
  Hashtbl.fold (fun _ c acc -> if c > 0 then acc + 1 else acc) t.pins 0
