open Rdb_data

type t = { data : Bytes.t; nbits : int; mutable adds : int }

let create ~bits =
  let nbits = Int.max 64 ((bits + 7) / 8 * 8) in
  { data = Bytes.make (nbits / 8) '\000'; nbits; adds = 0 }

let bits t = t.nbits

(* Two probes per RID, derived from one mixed hash. *)
let probes t rid =
  let h = Rid.hash rid in
  let h1 = h mod t.nbits in
  let h2 = (h / t.nbits) mod t.nbits in
  (h1, h2)

let set_bit t i =
  let byte = Bytes.get_uint8 t.data (i / 8) in
  Bytes.set_uint8 t.data (i / 8) (byte lor (1 lsl (i mod 8)))

let get_bit t i = Bytes.get_uint8 t.data (i / 8) land (1 lsl (i mod 8)) <> 0

let add t rid =
  let h1, h2 = probes t rid in
  set_bit t h1;
  set_bit t h2;
  t.adds <- t.adds + 1

let mem t rid =
  let h1, h2 = probes t rid in
  get_bit t h1 && get_bit t h2

let population t =
  let count = ref 0 in
  Bytes.iter (fun c -> count := !count + (match c with '\000' -> 0 | c ->
    let rec pop n acc = if n = 0 then acc else pop (n lsr 1) (acc + (n land 1)) in
    pop (Char.code c) 0)) t.data;
  !count

let expected_false_positive_rate t =
  (* k = 2 hash functions: (1 - e^{-2n/m})^2 *)
  let n = float_of_int t.adds and m = float_of_int t.nbits in
  let p = 1.0 -. exp (-2.0 *. n /. m) in
  p *. p
