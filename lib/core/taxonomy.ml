type api = Copy_api | Share_api
type csum_loc = Header | Trailer
type buffering = No_buffering | Packet_buffer | Outboard_buffer
type movement = Pio | Dma | Dma_csum

type op = Copy | Copy_c | Pio_op | Pio_c | Dma_op | Dma_c | Read_c

type klass = {
  api : api;
  csum : csum_loc;
  buffering : buffering;
  movement : movement;
  ops : op list;
}

(* Can the device-side checksum (engine, or host PIO loop) be placed in
   the packet?  A trailer can always be appended; a header checksum needs
   a buffered packet downstream of the computation. *)
let insertable csum buffering =
  match (csum, buffering) with
  | Trailer, _ -> true
  | Header, (Packet_buffer | Outboard_buffer) -> true
  | Header, No_buffering -> false

let classify ~api ~csum ~buffering ~movement =
  let need_snapshot =
    match (api, buffering) with
    | Copy_api, (No_buffering | Packet_buffer) -> true
    | Copy_api, Outboard_buffer -> false
    | Share_api, _ -> false
  in
  let can_insert = insertable csum buffering in
  let ops =
    if need_snapshot then
      (* A host copy exists; it can always carry the checksum.  Letting
         the device hardware do it instead saves nothing but is used when
         the fused copy is impossible... it never is, so prefer fusing
         except when the device path can also insert it (engine or PIO) —
         then the plain copy plus checksumming transfer is equivalent; we
         report the variant with the fewest host passes. *)
      match movement with
      | Pio ->
          if can_insert then [ Copy; Pio_c ] else [ Copy_c; Pio_op ]
      | Dma -> [ Copy_c; Dma_op ]
      | Dma_csum ->
          if can_insert then [ Copy; Dma_c ] else [ Copy_c; Dma_op ]
    else begin
      (* No host copy: the checksum must come from the transfer itself or
         from a separate read pass. *)
      match movement with
      | Pio -> if can_insert then [ Pio_c ] else [ Read_c; Pio_op ]
      | Dma -> [ Read_c; Dma_op ]
      | Dma_csum -> if can_insert then [ Dma_c ] else [ Read_c; Dma_op ]
    end
  in
  { api; csum; buffering; movement; ops }

let host_passes k =
  List.fold_left
    (fun acc op ->
      match op with
      | Copy | Copy_c | Pio_op | Pio_c | Read_c -> acc + 1
      | Dma_op | Dma_c -> acc)
    0 k.ops

let total_passes k = List.length k.ops

let is_single_copy k = total_passes k = 1

let cab_class =
  classify ~api:Copy_api ~csum:Header ~buffering:Outboard_buffer
    ~movement:Dma_csum

let all () =
  List.concat_map
    (fun api ->
      List.concat_map
        (fun csum ->
          List.concat_map
            (fun buffering ->
              List.map
                (fun movement -> classify ~api ~csum ~buffering ~movement)
                [ Pio; Dma; Dma_csum ])
            [ No_buffering; Packet_buffer; Outboard_buffer ])
        [ Header; Trailer ])
    [ Copy_api; Share_api ]

let op_to_string = function
  | Copy -> "COPY"
  | Copy_c -> "COPY_C"
  | Pio_op -> "PIO"
  | Pio_c -> "PIO_C"
  | Dma_op -> "DMA"
  | Dma_c -> "DMA_C"
  | Read_c -> "READ_C"

let pp_ops fmt ops =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "+")
    (fun fmt op -> Format.pp_print_string fmt (op_to_string op))
    fmt ops

let estimated_efficiency (p : Host_profile.t) k =
  let packet = 32768 in
  (* Host per-byte time per packet. *)
  let per_op op =
    match op with
    | Copy -> Memcost.copy p ~locality:Memcost.Cold packet
    | Copy_c | Pio_c ->
        Memcost.copy_with_checksum p ~locality:Memcost.Cold packet
    | Pio_op -> Memcost.copy p ~locality:Memcost.Cold packet
    | Read_c -> Memcost.checksum_read p ~locality:Memcost.Cold packet
    | Dma_op | Dma_c -> Simtime.zero
  in
  let per_packet_time =
    List.fold_left (fun acc op -> acc + per_op op) (Memcost.per_packet p) k.ops
  in
  Simtime.rate_mbit ~bytes:packet per_packet_time
