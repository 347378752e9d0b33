type t = {
  tos : int;
  total_len : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;
  ttl : int;
  proto : int;
  src : Inaddr.t;
  dst : Inaddr.t;
}

let size = 20
let proto_tcp = 6
let proto_udp = 17
let proto_icmp = 1

let make ?(tos = 0) ?(ident = 0) ?(ttl = 64) ~proto ~src ~dst ~total_len () =
  {
    tos;
    total_len;
    ident;
    dont_fragment = false;
    more_fragments = false;
    frag_offset = 0;
    ttl;
    proto;
    src;
    dst;
  }

let encode t buf ~off =
  if off + size > Bytes.length buf then
    invalid_arg "Ipv4_header.encode: buffer too small";
  Bytes.set_uint8 buf off 0x45 (* version 4, ihl 5 *);
  Bytes.set_uint8 buf (off + 1) t.tos;
  Bytes.set_uint16_be buf (off + 2) t.total_len;
  Bytes.set_uint16_be buf (off + 4) t.ident;
  let flags =
    (if t.dont_fragment then 0x4000 else 0)
    lor (if t.more_fragments then 0x2000 else 0)
    lor (t.frag_offset land 0x1fff)
  in
  Bytes.set_uint16_be buf (off + 6) flags;
  Bytes.set_uint8 buf (off + 8) t.ttl;
  Bytes.set_uint8 buf (off + 9) t.proto;
  Bytes.set_uint16_be buf (off + 10) 0;
  Bytes.set_int32_be buf (off + 12) t.src;
  Bytes.set_int32_be buf (off + 16) t.dst;
  let csum = Inet_csum.finish (Inet_csum.of_bytes ~off ~len:size buf) in
  Bytes.set_uint16_be buf (off + 10) csum

let check buf ~off =
  if off + size > Bytes.length buf then Error "ipv4: truncated header"
  else
    let vihl = Bytes.get_uint8 buf off in
    if vihl lsr 4 <> 4 then Error "ipv4: bad version"
    else if vihl land 0xf <> 5 then Error "ipv4: options unsupported"
    else if not (Inet_csum.is_valid (Inet_csum.of_bytes ~off ~len:size buf))
    then Error "ipv4: bad header checksum"
    else if Bytes.get_uint16_be buf (off + 2) < size then
      Error "ipv4: total length too small"
    else Ok ()

let decode buf ~off =
  match check buf ~off with
  | Error e -> Error e
  | Ok () ->
      let flags = Bytes.get_uint16_be buf (off + 6) in
      Ok
        {
          tos = Bytes.get_uint8 buf (off + 1);
          total_len = Bytes.get_uint16_be buf (off + 2);
          ident = Bytes.get_uint16_be buf (off + 4);
          dont_fragment = flags land 0x4000 <> 0;
          more_fragments = flags land 0x2000 <> 0;
          frag_offset = flags land 0x1fff;
          ttl = Bytes.get_uint8 buf (off + 8);
          proto = Bytes.get_uint8 buf (off + 9);
          src = Bytes.get_int32_be buf (off + 12);
          dst = Bytes.get_int32_be buf (off + 16);
        }

let pp fmt t =
  Format.fprintf fmt "ip{%a->%a proto=%d len=%d id=%d ttl=%d}" Inaddr.pp t.src
    Inaddr.pp t.dst t.proto t.total_len t.ident t.ttl
