type t = { src_port : int; dst_port : int; length : int }

let size = 8
let csum_field_offset = 6

let make ~src_port ~dst_port ~length = { src_port; dst_port; length }

let encode_raw t ~csum buf ~off =
  if off + size > Bytes.length buf then
    invalid_arg "Udp_header.encode: buffer too small";
  Bytes.set_uint16_be buf off t.src_port;
  Bytes.set_uint16_be buf (off + 2) t.dst_port;
  Bytes.set_uint16_be buf (off + 4) t.length;
  Bytes.set_uint16_be buf (off + 6) (csum land 0xffff)

let encode t ~csum buf ~off =
  let csum = if csum = 0 then 0xffff else csum in
  encode_raw t ~csum buf ~off

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
