(* Epoll-shaped readiness multiplexing over sockets and listeners.

   The poller is edge-notified and level-checked: every registered item
   installs a hook (Socket.set_event_hook / Tcp.set_on_acceptable) that
   enqueues the item on the poller's ready list the first time an edge
   fires; [wait] then filters that list against the level predicates and
   reports only items that are actually ready, re-queueing nothing that
   went quiet.  Cost per wait is O(items that edged) — never a scan of
   the full registration table, which is what lets one poller drive
   100K-connection servers. *)

type item = Sock of Socket.t | Listener of Tcp.listener

type entry = {
  item : item;
  data : int;  (* caller's cookie, returned verbatim in events *)
  mutable queued : bool;  (* on the ready list (dedups edge storms) *)
  mutable dead : bool;  (* unregistered; drop when popped *)
}

type event = {
  ev_item : item;
  ev_data : int;
  ev_readable : bool;
  ev_writable : bool;
  ev_acceptable : bool;
}

type t = { ready : entry Queue.t; mutable waiter : (event list -> unit) option }

let create () = { ready = Queue.create (); waiter = None }

(* Level check: what is this entry ready for right now?  A socket is
   watched for reading and writing, a listener for accepting. *)
let level e =
  match e.item with
  | Sock s ->
      let r = Socket.readable s in
      let w = Socket.writable s in
      if r || w || Socket.is_closed s then
        Some
          {
            ev_item = e.item;
            ev_data = e.data;
            ev_readable = r;
            ev_writable = w;
            ev_acceptable = false;
          }
      else None
  | Listener l ->
      if Tcp.listener_pending l > 0 then
        Some
          {
            ev_item = e.item;
            ev_data = e.data;
            ev_readable = false;
            ev_writable = false;
            ev_acceptable = true;
          }
      else None

(* Drain the edge queue against the level predicates.  An entry that
   edged but is not (or no longer) ready is dropped from the list — its
   hook will re-queue it on the next edge. *)
let collect t =
  let evs = ref [] in
  let still = Queue.create () in
  while not (Queue.is_empty t.ready) do
    let e = Queue.pop t.ready in
    e.queued <- false;
    if not e.dead then
      match level e with
      | Some ev ->
          evs := ev :: !evs;
          (* Level-triggered: a still-ready entry stays queued so the
             next [wait] reports it again without a new edge. *)
          e.queued <- true;
          Queue.push e still
      | None -> ()
  done;
  Queue.transfer still t.ready;
  List.rev !evs

let edge t e =
  if (not e.queued) && not e.dead then begin
    e.queued <- true;
    Queue.push e t.ready
  end;
  match t.waiter with
  | None -> ()
  | Some k -> (
      (* Wake the parked waiter only if the edge produced a real level. *)
      match collect t with
      | [] -> ()
      | evs ->
          t.waiter <- None;
          k evs)

let add_socket t ~data sock =
  let e = { item = Sock sock; data; queued = false; dead = false } in
  Socket.set_event_hook sock (fun () -> edge t e);
  (* The socket may be ready already (data raced the registration). *)
  edge t e;
  e

let add_listener t ~data l =
  let e = { item = Listener l; data; queued = false; dead = false } in
  Tcp.set_on_acceptable l (fun () -> edge t e);
  edge t e;
  e

let remove _ e = e.dead <- true

let wait t k =
  assert (t.waiter = None);
  match collect t with
  | [] -> t.waiter <- Some k (* park until an edge produces a level *)
  | evs -> k evs

let poll t = collect t
