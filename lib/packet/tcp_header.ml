type flag = FIN | SYN | RST | PSH | ACK | URG

type option_ =
  | Mss of int
  | Window_scale of int
  | Rx_cost of { bucket : int; uio_us : int; copy_us : int }
      (* experimental kind 14, length 12: log2 size-bucket (u8), pad,
         receiver's smoothed per-path delivery cost in us (2 x u32,
         0 = no sample).  Piggybacked on pure ACKs so the sender's path
         policy can account for receive-side cost. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : flag list;
  window : int;
  urgent : int;
  options : option_ list;
}

let base_size = 20
let csum_field_offset = 16

let bit_of_flag = function
  | FIN -> 0x01
  | SYN -> 0x02
  | RST -> 0x04
  | PSH -> 0x08
  | ACK -> 0x10
  | URG -> 0x20

let has f t = List.mem f t.flags

let flag_bits flags =
  List.fold_left (fun acc f -> acc lor bit_of_flag f) 0 flags

let options_size options =
  let raw =
    List.fold_left
      (fun acc -> function
        | Mss _ -> acc + 4
        | Window_scale _ -> acc + 3
        | Rx_cost _ -> acc + 12)
      0 options
  in
  (raw + 3) / 4 * 4

let size t = base_size + options_size t.options

let make ?(flags = []) ?(window = 0) ?(options = []) ~src_port ~dst_port ~seq
    ~ack () =
  { src_port; dst_port; seq; ack; flags; window; urgent = 0; options }

let encode t ~csum buf ~off =
  let hdr_size = size t in
  if off + hdr_size > Bytes.length buf then
    invalid_arg "Tcp_header.encode: buffer too small";
  Bytes.set_uint16_be buf off t.src_port;
  Bytes.set_uint16_be buf (off + 2) t.dst_port;
  Bytes.set_int32_be buf (off + 4) (Int32.of_int (t.seq land 0xffffffff));
  Bytes.set_int32_be buf (off + 8) (Int32.of_int (t.ack land 0xffffffff));
  let data_off = hdr_size / 4 in
  Bytes.set_uint8 buf (off + 12) (data_off lsl 4);
  Bytes.set_uint8 buf (off + 13) (flag_bits t.flags);
  Bytes.set_uint16_be buf (off + 14) t.window;
  Bytes.set_uint16_be buf (off + 16) (csum land 0xffff);
  Bytes.set_uint16_be buf (off + 18) t.urgent;
  (* Options, then NOP padding to a word boundary. *)
  let pos = ref (off + base_size) in
  List.iter
    (fun o ->
      match o with
      | Mss m ->
          Bytes.set_uint8 buf !pos 2;
          Bytes.set_uint8 buf (!pos + 1) 4;
          Bytes.set_uint16_be buf (!pos + 2) m;
          pos := !pos + 4
      | Window_scale s ->
          Bytes.set_uint8 buf !pos 3;
          Bytes.set_uint8 buf (!pos + 1) 3;
          Bytes.set_uint8 buf (!pos + 2) s;
          pos := !pos + 3
      | Rx_cost { bucket; uio_us; copy_us } ->
          Bytes.set_uint8 buf !pos 14;
          Bytes.set_uint8 buf (!pos + 1) 12;
          Bytes.set_uint8 buf (!pos + 2) (bucket land 0xff);
          Bytes.set_uint8 buf (!pos + 3) 0;
          Bytes.set_int32_be buf (!pos + 4)
            (Int32.of_int (uio_us land 0xffffffff));
          Bytes.set_int32_be buf (!pos + 8)
            (Int32.of_int (copy_us land 0xffffffff));
          pos := !pos + 12)
    t.options;
  while !pos < off + hdr_size do
    Bytes.set_uint8 buf !pos 1 (* NOP *);
    incr pos
  done

let u32 buf p = Int32.to_int (Bytes.get_int32_be buf p) land 0xffffffff

let rec decode_options buf pos ~limit acc =
  if pos >= limit then Ok (List.rev acc)
  else
    match Bytes.get_uint8 buf pos with
    | 0 -> Ok (List.rev acc) (* end of options *)
    | 1 -> decode_options buf (pos + 1) ~limit acc (* NOP *)
    | 2 when pos + 4 <= limit && Bytes.get_uint8 buf (pos + 1) = 4 ->
        decode_options buf (pos + 4) ~limit
          (Mss (Bytes.get_uint16_be buf (pos + 2)) :: acc)
    | 3 when pos + 3 <= limit && Bytes.get_uint8 buf (pos + 1) = 3 ->
        decode_options buf (pos + 3) ~limit
          (Window_scale (Bytes.get_uint8 buf (pos + 2)) :: acc)
    | 14 when pos + 12 <= limit && Bytes.get_uint8 buf (pos + 1) = 12 ->
        decode_options buf (pos + 12) ~limit
          (Rx_cost
             {
               bucket = Bytes.get_uint8 buf (pos + 2);
               uio_us = u32 buf (pos + 4);
               copy_us = u32 buf (pos + 8);
             }
          :: acc)
    | _ -> Error "tcp: malformed option"

(* Every flags byte's list, built once: decoding shares them, so a
   header's flags cost no allocation. *)
let flag_lists =
  Array.init 64 (fun bits ->
      List.filter
        (fun f -> bits land bit_of_flag f <> 0)
        [ FIN; SYN; RST; PSH; ACK; URG ])

let no_options = Ok []

let decode buf ~off ~len =
  if len < base_size || off + base_size > Bytes.length buf then
    Error "tcp: truncated header"
  else
    let data_off = (Bytes.get_uint8 buf (off + 12) lsr 4) * 4 in
    if data_off < base_size then Error "tcp: bad data offset"
    else if len < data_off || off + data_off > Bytes.length buf then
      Error "tcp: truncated options"
    else
      let options =
        if data_off = base_size then no_options
        else decode_options buf (off + base_size) ~limit:(off + data_off) []
      in
      match options with
      | Error _ as e -> e
      | Ok options ->
          Ok
            {
              src_port = Bytes.get_uint16_be buf off;
              dst_port = Bytes.get_uint16_be buf (off + 2);
              seq = u32 buf (off + 4);
              ack = u32 buf (off + 8);
              flags = flag_lists.(Bytes.get_uint8 buf (off + 13) land 0x3f);
              window = Bytes.get_uint16_be buf (off + 14);
              urgent = Bytes.get_uint16_be buf (off + 18);
              options;
            }
