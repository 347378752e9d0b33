type copy_dest =
  | To_user of Region.t
  | To_kernel of Bytes.t * int

type t = {
  name : string;
  addr : Inaddr.t;
  mtu : int;
  single_copy : bool;
  mutable output : t -> Mbuf.t -> next_hop:Inaddr.t -> unit;
  copy_out :
    (Mbuf.t -> off:int -> len:int -> dst:copy_dest -> on_done:(unit -> unit)
     -> unit)
    option;
  mutable input : Mbuf.t -> unit;
  mutable neighbors : (Inaddr.t * int) list;
  mutable tx_faults : int;
}

let make ~name ~addr ~mtu ?(single_copy = false) ?copy_out ~output () =
  {
    name;
    addr;
    mtu;
    single_copy;
    output;
    copy_out;
    input =
      (fun _ ->
        invalid_arg (Printf.sprintf "Netif %s: no input attached" name));
    neighbors = [];
    tx_faults = 0;
  }

let attach_input t f = t.input <- f

let deliver t m =
  Mbuf.set_rcvif m t.name;
  t.input m

let add_neighbor t ip link = t.neighbors <- (ip, link) :: t.neighbors

let rec find_neighbor ip = function
  | [] -> None
  | (a, l) :: rest ->
      if Inaddr.equal a ip then Some l else find_neighbor ip rest

let link_addr t ip = find_neighbor ip t.neighbors
