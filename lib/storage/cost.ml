type weights = {
  physical_read : float;
  logical_read : float;
  block_write : float;
  cpu_op : float;
}

let default_weights =
  { physical_read = 1.0; logical_read = 0.01; block_write = 1.0; cpu_op = 0.0001 }

type t = {
  mutable physical : int;
  mutable logical : int;
  mutable writes : int;
  mutable cpu : int;
}

let create () = { physical = 0; logical = 0; writes = 0; cpu = 0 }

let charge_physical t = t.physical <- t.physical + 1
let charge_logical t = t.logical <- t.logical + 1
let charge_write t = t.writes <- t.writes + 1
let charge_cpu t n = t.cpu <- t.cpu + n

let physical_reads t = t.physical
let logical_reads t = t.logical
let block_writes t = t.writes
let cpu_ops t = t.cpu

let[@inline] total t =
  let w = default_weights in
  (float_of_int t.physical *. w.physical_read)
  +. (float_of_int t.logical *. w.logical_read)
  +. (float_of_int t.writes *. w.block_write)
  +. (float_of_int t.cpu *. w.cpu_op)

(* [total] inlines here, so the three sums stay unboxed and the one
   result is the only float boxed. *)
let total3 a b c = total a +. total b +. total c

let add dst src =
  dst.physical <- dst.physical + src.physical;
  dst.logical <- dst.logical + src.logical;
  dst.writes <- dst.writes + src.writes;
  dst.cpu <- dst.cpu + src.cpu

let snapshot t = { physical = t.physical; logical = t.logical; writes = t.writes; cpu = t.cpu }

let since now before = total now -. total before

let pp fmt t =
  Format.fprintf fmt "phys=%d log=%d wr=%d cpu=%d cost=%.2f" t.physical t.logical t.writes
    t.cpu (total t)
