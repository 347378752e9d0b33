(* Bounded server-side connection queues: the SYN (half-open) table and
   the accept FIFO behind one listening port.

   Generic in both element types so the qcheck model test can drive the
   exact structure the TCP listener uses against a trivial assoc-list
   oracle.  The SYN table is a Hashtbl keyed by a caller-packed int
   (remote address + remote port — the local tuple is fixed per
   listener); the accept queue is a plain FIFO.  Both enforce their
   bound at insert: the caller decides the overflow policy (drop, RST,
   cookie) from the [false] return. *)

type ('h, 'a) t = {
  syn_backlog : int;
  backlog : int;
  syn : (int, 'h) Hashtbl.t;
  acc : 'a Queue.t;
}

let create ~syn_backlog ~backlog =
  if syn_backlog <= 0 then invalid_arg "Listenq.create: syn_backlog <= 0";
  if backlog <= 0 then invalid_arg "Listenq.create: backlog <= 0";
  {
    syn_backlog;
    backlog;
    syn = Hashtbl.create (min syn_backlog 64);
    acc = Queue.create ();
  }

let backlog t = t.backlog

(* ---------- SYN (half-open) table ---------- *)

let syn_count t = Hashtbl.length t.syn
let syn_full t = Hashtbl.length t.syn >= t.syn_backlog
let syn_find t key = Hashtbl.find_opt t.syn key

let syn_add t key v =
  if Hashtbl.mem t.syn key then begin
    (* Replace in place: a re-admitted tuple keeps one slot. *)
    Hashtbl.replace t.syn key v;
    true
  end
  else if Hashtbl.length t.syn >= t.syn_backlog then false
  else begin
    Hashtbl.replace t.syn key v;
    true
  end

let syn_remove t key = Hashtbl.remove t.syn key
let syn_iter f t = Hashtbl.iter f t.syn

let syn_drain f t =
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.syn [] in
  Hashtbl.reset t.syn;
  List.iter (fun (_, v) -> f v) entries

(* ---------- accept queue ---------- *)

let acc_count t = Queue.length t.acc
let acc_full t = Queue.length t.acc >= t.backlog

let acc_push t v =
  if Queue.length t.acc >= t.backlog then false
  else begin
    Queue.push v t.acc;
    true
  end

let acc_pop t = Queue.take_opt t.acc

let acc_drain f t =
  let q = Queue.create () in
  Queue.transfer t.acc q;
  Queue.iter f q
