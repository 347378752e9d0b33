type t = int

let mask = 0xffffffff

let norm x = x land mask
let add a n = (a + n) land mask

let diff a b =
  let d = (a - b) land mask in
  if d >= 0x80000000 then d - 0x100000000 else d

let lt a b = diff a b < 0
let le a b = diff a b <= 0
let gt a b = diff a b > 0
let ge a b = diff a b >= 0
let max a b = if ge a b then a else b

