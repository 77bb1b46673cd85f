type fit = { b : float; d : float; mirrored : bool; relative_error : float }

let relative_error p h =
  let dp = Dist.density p and dh = Dist.density h in
  if Array.length dp <> Array.length dh then invalid_arg "Hyperbola.relative_error";
  let pmax = Array.fold_left Float.max neg_infinity dp in
  let pmin = Array.fold_left Float.min infinity dp in
  let range = pmax -. pmin in
  if range <= 0.0 then invalid_arg "Hyperbola.relative_error: constant density";
  let worst = ref 0.0 in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. dh.(i)))) dp;
  !worst /. range

let density ?(bins = Dist.default_bins) ~b ~d () =
  if b <= 0.0 then invalid_arg "Hyperbola.density: b <= 0";
  if d < 0.0 then invalid_arg "Hyperbola.density: d < 0";
  (* Per-bin averages (exact integrals of 1/(s+b)), not midpoint
     samples: near the pole a midpoint sample grossly underestimates
     the bin mass, which matters because L-shapes put over half their
     mass in the first few bins. *)
  let h = 1.0 /. float_of_int bins in
  Dist.of_density
    (Array.init bins (fun i ->
         let s0 = float_of_int i *. h and s1 = float_of_int (i + 1) *. h in
         (log ((s1 +. b) /. (s0 +. b)) /. h) +. d))

let try_fit target ~mirrored =
  let p = if mirrored then Dist.neg target else target in
  let n = Dist.bins p in
  let err b d = relative_error p (density ~bins:n ~b ~d ()) in
  (* Coarse logarithmic sweep on b crossed with a d grid, then
     golden-section refinement on b for the best d. *)
  let d_grid = [ 0.0; 0.05; 0.1; 0.2; 0.4; 0.8 ] in
  let best = ref (1.0, 0.0, err 1.0 0.0) in
  List.iter
    (fun d ->
      let b = ref 1e-8 in
      while !b <= 10.0 do
        let e = err !b d in
        let _, _, be = !best in
        if e < be then best := (!b, d, e);
        b := !b *. 1.3
      done)
    d_grid;
  let b0, d0, _ = !best in
  (* Golden-section on log b around the coarse optimum. *)
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let lo = ref (log (b0 /. 2.0)) and hi = ref (log (b0 *. 2.0)) in
  for _ = 1 to 40 do
    let x1 = !hi -. (phi *. (!hi -. !lo)) in
    let x2 = !lo +. (phi *. (!hi -. !lo)) in
    if err (exp x1) d0 < err (exp x2) d0 then hi := x2 else lo := x1
  done;
  let b = exp ((!lo +. !hi) /. 2.0) in
  let e_refined = err b d0 in
  let _, _, e_coarse = !best in
  if e_refined < e_coarse then { b; d = d0; mirrored; relative_error = e_refined }
  else { b = b0; d = d0; mirrored; relative_error = e_coarse }

let fit target =
  let left = try_fit target ~mirrored:false in
  let right = try_fit target ~mirrored:true in
  if left.relative_error <= right.relative_error then left else right
