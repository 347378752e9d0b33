type t = int32

let v a b c d =
  let ok x = x >= 0 && x <= 255 in
  if not (ok a && ok b && ok c && ok d) then
    invalid_arg "Inaddr.v: octet out of range";
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let octet t i = Int32.to_int (Int32.shift_right_logical t (24 - (8 * i))) land 0xff

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (octet t 0) (octet t 1) (octet t 2) (octet t 3)

let equal = Int32.equal
let any = 0l
let loopback = v 127 0 0 1

let in_prefix ~prefix ~len a =
  if len <= 0 then true
  else if len >= 32 then Int32.equal prefix a
  else
    let mask = Int32.shift_left (-1l) (32 - len) in
    Int32.equal (Int32.logand a mask) (Int32.logand prefix mask)
