type tx = {
  csum_offset : int;
  skip_bytes : int;
  seed : Inet_csum.sum;
}

let make_tx ~csum_offset ~skip_bytes ~seed =
  if csum_offset < skip_bytes then
    invalid_arg "Csum_offload.make_tx: checksum field outside summed range";
  { csum_offset; skip_bytes; seed }

let tx_finalize ~header_sum ~body_sum =
  Inet_csum.finish (Inet_csum.add header_sum body_sum)

type rx = { engine_sum : Inet_csum.sum; mutable rx_start : int }

let make_rx ~engine_sum ~rx_start = { engine_sum; rx_start }

let rx_verify r ~skipped ~pseudo =
  let total = Inet_csum.add r.engine_sum (Inet_csum.add skipped pseudo) in
  Inet_csum.is_valid total
