type t = { src : int; dst : int; ethertype : int }

let size = 14
let ethertype_ipv4 = 0x0800

let make ~src ~dst = { src; dst; ethertype = ethertype_ipv4 }

let set48 buf off v =
  Bytes.set_uint16_be buf off ((v lsr 32) land 0xffff);
  Bytes.set_int32_be buf (off + 2) (Int32.of_int (v land 0xffffffff))

let get48 buf off =
  let hi = Bytes.get_uint16_be buf off in
  let lo = Int32.to_int (Bytes.get_int32_be buf (off + 2)) land 0xffffffff in
  (hi lsl 32) lor lo

let encode t buf ~off =
  if off + size > Bytes.length buf then
    invalid_arg "Ether_frame.encode: buffer too small";
  set48 buf off t.dst;
  set48 buf (off + 6) t.src;
  Bytes.set_uint16_be buf (off + 12) t.ethertype

let decode buf ~off =
  if off + size > Bytes.length buf then Error "ether: truncated frame"
  else
    Ok
      {
        dst = get48 buf off;
        src = get48 buf (off + 6);
        ethertype = Bytes.get_uint16_be buf (off + 12);
      }
