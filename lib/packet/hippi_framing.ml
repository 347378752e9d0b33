type t = { src : int; dst : int; channel : int; payload_len : int }

let size = 40
let rx_csum_start_words = 20
let magic = 0x48495050 (* "HIPP" *)

let encode buf ~off ~src ~dst ~channel ~payload_len =
  if off + size > Bytes.length buf then
    invalid_arg "Hippi_framing.encode: buffer too small";
  Bytes.set_int32_be buf off (Int32.of_int magic);
  Bytes.set_int32_be buf (off + 4) (Int32.of_int src);
  Bytes.set_int32_be buf (off + 8) (Int32.of_int dst);
  Bytes.set_int32_be buf (off + 12) (Int32.of_int channel);
  Bytes.set_int32_be buf (off + 16) (Int32.of_int payload_len);
  Bytes.fill buf (off + 20) 20 '\000'

let decode buf ~off =
  if off + size > Bytes.length buf then Error "hippi: truncated header"
  else if Int32.to_int (Bytes.get_int32_be buf off) <> magic then
    Error "hippi: bad magic"
  else
    let word i = Int32.to_int (Bytes.get_int32_be buf (off + (4 * i))) in
    Ok
      {
        src = word 1;
        dst = word 2;
        channel = word 3;
        payload_len = word 4;
      }
