type t = int

let zero = 0
let ns n = n
let us f = int_of_float (f *. 1e3 +. 0.5)
let ms f = int_of_float (f *. 1e6 +. 0.5)
let s f = int_of_float (f *. 1e9 +. 0.5)
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_s t = float_of_int t /. 1e9
let add = ( + )
let sub = ( - )

let of_bytes_at_rate ~bytes_per_s n =
  if n <= 0 then 0
  else
    let t = float_of_int n /. bytes_per_s *. 1e9 in
    max 1 (int_of_float (Float.ceil t))

let rate_mbit ~bytes t =
  if t <= 0 then 0.
  else float_of_int (bytes * 8) /. (float_of_int t /. 1e9) /. 1e6

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2fus" (to_us t)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_ms t)
  else Format.fprintf fmt "%.4fs" (to_s t)
