type t = { n : int; cdf : float array }

let create ~n ~theta =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  if theta < 0.0 then invalid_arg "Zipf.create: theta < 0";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  { n; cdf }

let draw t rng =
  let u = Rdb_util.Prng.float rng 1.0 in
  (* Binary search for the first cdf entry >= u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1
