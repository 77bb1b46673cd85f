type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let split g =
  let s = bits64 g in
  { state = s }

(* Non-negative 62-bit value: safe to convert to a native [int]. *)
let bits g = Int64.to_int (Int64.shift_right_logical (bits64 g) 2)

let int g bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let max = 0x3FFF_FFFF_FFFF_FFFF in
  let limit = max - (max mod bound) in
  let rec loop () =
    let v = bits g in
    if v >= limit then loop () else v mod bound
  in
  loop ()

let int_in g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let float g x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  x *. (v /. 9007199254740992.0 (* 2^53 *))

let bool g = Int64.logand (bits64 g) 1L = 1L

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

let normal g ~mean ~stddev =
  let u1 = 1.0 -. float g 1.0 in
  let u2 = float g 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
