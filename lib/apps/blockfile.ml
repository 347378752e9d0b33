let block_size = 32 * 1024

let magic_rq = 0x5251 (* "RQ" *)
let magic_rs = 0x5253 (* "RS" *)
let header_size = 12

type server_stats = {
  mutable requests : int;
  mutable blocks_served : int;
  mutable bytes_served : int;
  mutable bad_requests : int;
}

(* Block [i]'s pattern, matching Region.fill_pattern ~seed:i. *)
let block_bytes i =
  let b = Bytes.create block_size in
  for j = 0 to block_size - 1 do
    Bytes.set_uint8 b j ((i + (j * 131)) land 0xff)
  done;
  b

let expected_block i region =
  Region.length region = block_size
  &&
  let ok = ref true in
  let b = Region.bytes region in
  (try
     for j = 0 to block_size - 1 do
       if Bytes.get_uint8 b j <> (i + (j * 131)) land 0xff then begin
         ok := false;
         raise Exit
       end
     done
   with Exit -> ());
  !ok

let encode_header ~magic ~op ~block ~len =
  let b = Bytes.create header_size in
  Bytes.set_uint16_be b 0 magic;
  Bytes.set_uint16_be b 2 op;
  Bytes.set_int32_be b 4 (Int32.of_int block);
  Bytes.set_int32_be b 8 (Int32.of_int len);
  b

let decode_header b ~off =
  ( Bytes.get_uint16_be b off,
    Bytes.get_uint16_be b (off + 2),
    Int32.to_int (Bytes.get_int32_be b (off + 4)),
    Int32.to_int (Bytes.get_int32_be b (off + 8)) )

(* ---------------- server (in-kernel, share semantics) ---------------- *)

let serve ~stack ~port ~blocks () =
  let stats =
    { requests = 0; blocks_served = 0; bytes_served = 0; bad_requests = 0 }
  in
  Tcp.listen stack.Netstack.tcp ~port ~on_accept:(fun pcb ->
      let pending = Buffer.create 64 in
      let respond i =
        let ok = i >= 0 && i < blocks in
        let hdr =
          encode_header ~magic:magic_rs
            ~op:(if ok then 0 else 1)
            ~block:i
            ~len:(if ok then block_size else 0)
        in
        let chain = Mbuf.of_bytes ~pkthdr:true hdr in
        if ok then Mbuf.append chain (Mbuf.of_bytes (block_bytes i));
        stats.requests <- stats.requests + 1;
        if ok then begin
          stats.blocks_served <- stats.blocks_served + 1;
          stats.bytes_served <- stats.bytes_served + block_size
        end
        else stats.bad_requests <- stats.bad_requests + 1;
        match Tcp.sosend_append pcb ~proc:"blockd" chain with
        | Ok () -> ()
        | Error _ -> ()
      in
      let rec drain () =
        match Tcp.recv pcb ~max:max_int with
        | None -> ()
        | Some chain ->
            Buffer.add_string pending (Mbuf.to_string chain);
            Mbuf.free chain;
            let rec parse () =
              if Buffer.length pending >= header_size then begin
                let b = Bytes.of_string (Buffer.contents pending) in
                let magic, _op, block, _len = decode_header b ~off:0 in
                let rest =
                  Bytes.sub_string b header_size
                    (Bytes.length b - header_size)
                in
                Buffer.clear pending;
                Buffer.add_string pending rest;
                if magic = magic_rq then respond block
                else stats.bad_requests <- stats.bad_requests + 1;
                parse ()
              end
            in
            parse ();
            drain ()
      in
      Tcp.set_callbacks pcb ~on_readable:drain ());
  stats

(* ---------------- client (user level, copy semantics) ---------------- *)

type client = {
  mutable reads : int;
  mutable read_errors : int;
  latencies : Obs.Histogram.t;
}

let connect ~stack ~server ~port ?paths ~on_ready () =
  let host = stack.Netstack.host in
  let space = Netstack.make_space stack ~name:"blockclient" in
  let pcb = ref None in
  pcb :=
    Some
      (Tcp.connect stack.Netstack.tcp ~dst:server ~dst_port:port
         ~on_established:(fun () ->
           let sock = Socket.create ~host ~space ~proc:"ttcp" ?paths
               (Option.get !pcb)
           in
           let client =
             { reads = 0; read_errors = 0; latencies = Obs.Histogram.create () }
           in
           let req_buf = Addr_space.alloc space header_size in
           let hdr_buf = Addr_space.alloc space header_size in
           let read_block i ~ok =
             let t0 = Sim.now host.Host.sim in
             Region.blit_from_bytes
               (encode_header ~magic:magic_rq ~op:0 ~block:i ~len:0)
               ~src_off:0 req_buf ~dst_off:0 ~len:header_size;
             Socket.write sock req_buf (fun () ->
                 Socket.read_exact sock hdr_buf (fun n ->
                     if n < header_size then client.read_errors <- client.read_errors + 1
                     else begin
                       let magic, status, block, len =
                         decode_header (Region.bytes hdr_buf) ~off:0
                       in
                       if magic <> magic_rs || status <> 0 || block <> i
                          || len <> block_size
                       then client.read_errors <- client.read_errors + 1
                       else begin
                         let data = Addr_space.alloc space block_size in
                         Socket.read_exact sock data (fun n2 ->
                             if n2 <> block_size || not (expected_block i data)
                             then
                               client.read_errors <- client.read_errors + 1
                             else begin
                               client.reads <- client.reads + 1;
                               Obs.Histogram.observe client.latencies
                                 (Simtime.sub (Sim.now host.Host.sim) t0)
                             end;
                             ok data)
                       end
                     end))
           in
           on_ready client read_block)
         ())
