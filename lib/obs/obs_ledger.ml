type site =
  | Sock_tx_copy
  | Sock_rx_copy
  | Tcp_tx_csum
  | Tcp_rx_csum
  | Tcp_flatten
  | Drv_tx_header
  | Drv_tx_gather
  | Drv_tx_stage
  | Drv_rx_head
  | Drv_rx_stage
  | Sdma_payload
  | Media
  | Rx_engine
  | Copyout

type op = Copy | Sum | Copy_sum

let site_idx = function
  | Sock_tx_copy -> 0
  | Sock_rx_copy -> 1
  | Tcp_tx_csum -> 2
  | Tcp_rx_csum -> 3
  | Tcp_flatten -> 4
  | Drv_tx_header -> 5
  | Drv_tx_gather -> 6
  | Drv_tx_stage -> 7
  | Drv_rx_head -> 8
  | Drv_rx_stage -> 9
  | Sdma_payload -> 10
  | Media -> 11
  | Rx_engine -> 12
  | Copyout -> 13

let nsites = 14
let op_idx = function Copy -> 0 | Sum -> 1 | Copy_sum -> 2
let nops = 3
let cells = nsites * nops

(* Always-on global ledger: a flat int array, indexed site*nops+op. *)
let byte_cells = Array.make cells 0

let touch site op n =
  let i = (site_idx site * nops) + op_idx op in
  byte_cells.(i) <- byte_cells.(i) + n

type snapshot = int array

let snapshot () = Array.copy byte_cells
let since s = Array.init cells (fun i -> byte_cells.(i) - s.(i))
let bytes s site op = s.((site_idx site * nops) + op_idx op)
let copied_bytes s site = bytes s site Copy + bytes s site Copy_sum
let summed_bytes s site = bytes s site Sum + bytes s site Copy_sum

(* Drv_tx_header moves protocol headers, not payload, so it stays out of
   the per-payload-byte copy metrics ([bytes] still reads it). *)
let host_tx_copy_sites = [ Sock_tx_copy; Tcp_flatten; Drv_tx_gather; Drv_tx_stage ]
let host_rx_copy_sites = [ Sock_rx_copy; Drv_rx_head; Drv_rx_stage ]

let sum_over sites f = List.fold_left (fun acc site -> acc + f site) 0 sites
let host_tx_copy_bytes s = sum_over host_tx_copy_sites (copied_bytes s)
let host_rx_copy_bytes s = sum_over host_rx_copy_sites (copied_bytes s)
let host_tx_sum_bytes s = summed_bytes s Tcp_tx_csum + summed_bytes s Tcp_flatten
let host_rx_sum_bytes s = summed_bytes s Tcp_rx_csum

let per_byte n ~payload = if payload <= 0 then 0. else float_of_int n /. float_of_int payload

let tx_copies_per_byte s ~payload =
  per_byte (host_tx_copy_bytes s + copied_bytes s Sdma_payload) ~payload

let rx_copies_per_byte s ~payload =
  per_byte (host_rx_copy_bytes s + copied_bytes s Copyout) ~payload

let tx_sums_per_byte s ~payload = per_byte (host_tx_sum_bytes s) ~payload
let rx_sums_per_byte s ~payload = per_byte (host_rx_sum_bytes s) ~payload

let report_json s ~payload =
  Printf.sprintf
    "{\"payload_bytes\": %d, \"tx_copies_per_byte\": %.4f, \
     \"tx_sums_per_byte\": %.4f, \"rx_copies_per_byte\": %.4f, \
     \"rx_sums_per_byte\": %.4f, \"host_tx_copy_bytes\": %d, \
     \"host_rx_copy_bytes\": %d, \"host_tx_sum_bytes\": %d, \
     \"host_rx_sum_bytes\": %d, \"sdma_payload_bytes\": %d, \
     \"copyout_bytes\": %d}"
    payload
    (tx_copies_per_byte s ~payload)
    (tx_sums_per_byte s ~payload)
    (rx_copies_per_byte s ~payload)
    (rx_sums_per_byte s ~payload)
    (host_tx_copy_bytes s) (host_rx_copy_bytes s) (host_tx_sum_bytes s)
    (host_rx_sum_bytes s)
    (copied_bytes s Sdma_payload)
    (copied_bytes s Copyout)
