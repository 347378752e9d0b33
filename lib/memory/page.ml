let host_page_size = 8192
let cab_page_size = 4096

let count ~page_size ~base ~len =
  if len <= 0 then 0
  else
    let first = base / page_size in
    let last = (base + len - 1) / page_size in
    last - first + 1

let round_up ~page_size n = (n + page_size - 1) / page_size * page_size
