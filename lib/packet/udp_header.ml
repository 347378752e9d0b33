type t = { src_port : int; dst_port : int; length : int }

let size = 8
let csum_field_offset = 6

let decode buf ~off ~len =
  if len < size || off + size > Bytes.length buf then
    Error "udp: truncated header"
  else
    let length = Bytes.get_uint16_be buf (off + 4) in
    if length < size then Error "udp: bad length"
    else
      Ok
        ( {
            src_port = Bytes.get_uint16_be buf off;
            dst_port = Bytes.get_uint16_be buf (off + 2);
            length;
          },
          Bytes.get_uint16_be buf (off + 6) )
