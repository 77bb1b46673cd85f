type t = { d : float array } (* density at bin midpoints; mean of d = 1 *)

type correlation = Fixed of float | Unknown

let default_bins = 512

let normalize d =
  let n = Array.length d in
  let total = Array.fold_left ( +. ) 0.0 d in
  if total <= 0.0 then invalid_arg "Dist: non-normalizable density";
  let scale = float_of_int n /. total in
  { d = Array.map (fun x -> x *. scale) d }

let of_density d =
  if Array.length d = 0 then invalid_arg "Dist.of_density: empty";
  Array.iter (fun x -> if x < 0.0 || Float.is_nan x then invalid_arg "Dist.of_density: negative") d;
  normalize (Array.copy d)

let uniform ?(bins = default_bins) () = { d = Array.make bins 1.0 }

let clamp01 s = Rdb_util.Stats.clamp s ~lo:0.0 ~hi:1.0

let midpoint n i = (float_of_int i +. 0.5) /. float_of_int n

let bin_of n s =
  let i = int_of_float (clamp01 s *. float_of_int n) in
  Int.min (n - 1) (Int.max 0 i)

let point ?(bins = default_bins) s =
  let d = Array.make bins 0.0 in
  d.(bin_of bins s) <- 1.0;
  normalize d

let bell ?(bins = default_bins) ~mean ~stddev () =
  if stddev <= 0.0 then point ~bins mean
  else begin
    let d =
      Array.init bins (fun i ->
          let x = midpoint bins i in
          let z = (x -. mean) /. stddev in
          exp (-0.5 *. z *. z))
    in
    normalize d
  end

let hyperbola ?(bins = default_bins) ~b () =
  if b <= 0.0 then invalid_arg "Dist.hyperbola: b must be positive";
  (* Bin-averaged (exact integral of 1/(s+b) per bin) so steep shapes
     keep their mass under discretization. *)
  let h = 1.0 /. float_of_int bins in
  normalize
    (Array.init bins (fun i ->
         let s0 = float_of_int i *. h and s1 = float_of_int (i + 1) *. h in
         log ((s1 +. b) /. (s0 +. b)) /. h))

let bins t = Array.length t.d

let density t = Array.copy t.d

let neg t =
  let n = bins t in
  { d = Array.init n (fun i -> t.d.(n - 1 - i)) }

(* Combined selectivity of point selectivities under correlation c. *)
let combine_and ~c sx sy =
  let indep = sx *. sy in
  if c >= 0.0 then ((1.0 -. c) *. indep) +. (c *. Float.min sx sy)
  else ((1.0 +. c) *. indep) -. (c *. Float.max 0.0 (sx +. sy -. 1.0))

(* Deposit of probability mass [w] spread uniformly over [x0, x1] into
   a mass accumulator: [mass] takes point deposits, [slope] is a
   difference array of uniform density covering whole bins.  Partial
   end bins receive their exact overlap as point mass. *)
let deposit_uniform ~mass ~slope x0 x1 w =
  let n = Array.length mass in
  let h = 1.0 /. float_of_int n in
  let width = x1 -. x0 in
  if width <= h *. 0.5 then begin
    let i = bin_of n ((x0 +. x1) *. 0.5) in
    mass.(i) <- mass.(i) +. w
  end
  else begin
    let dens = w /. width in
    let i0 = bin_of n x0 and i1 = bin_of n x1 in
    if i0 = i1 then mass.(i0) <- mass.(i0) +. w
    else begin
      let first_overlap = (float_of_int (i0 + 1) *. h) -. x0 in
      mass.(i0) <- mass.(i0) +. (dens *. first_overlap);
      let last_overlap = x1 -. (float_of_int i1 *. h) in
      mass.(i1) <- mass.(i1) +. (dens *. last_overlap);
      if i1 > i0 + 1 then begin
        slope.(i0 + 1) <- slope.(i0 + 1) +. dens;
        slope.(i1) <- slope.(i1) -. dens
      end
    end
  end

let and_ ~corr a b =
  let n = Int.max (bins a) (bins b) in
  let wa = Array.map (fun x -> x /. float_of_int (bins a)) a.d in
  let wb = Array.map (fun x -> x /. float_of_int (bins b)) b.d in
  let mass = Array.make n 0.0 in
  let slope = Array.make n 0.0 in
  let na = bins a and nb = bins b in
  (match corr with
  | Fixed c ->
      if c < -1.0 || c > 1.0 then invalid_arg "Dist.and_: correlation out of [-1,1]";
      for i = 0 to na - 1 do
        let wi = wa.(i) in
        if wi > 0.0 then begin
          let sx = midpoint na i in
          for j = 0 to nb - 1 do
            let wj = wb.(j) in
            if wj > 0.0 then begin
              let s = combine_and ~c sx (midpoint nb j) in
              let k = bin_of n s in
              mass.(k) <- mass.(k) +. (wi *. wj)
            end
          done
        end
      done
  | Unknown ->
      (* Uniform mixture over c in [-1,+1]: half the pair mass spreads
         uniformly over [neg_end, indep] (c in [-1,0]) and half over
         [indep, pos_end] (c in [0,+1]), because the combined
         selectivity is linear in c on each half-interval. *)
      for i = 0 to na - 1 do
        let wi = wa.(i) in
        if wi > 0.0 then begin
          let sx = midpoint na i in
          for j = 0 to nb - 1 do
            let wj = wb.(j) in
            if wj > 0.0 then begin
              let sy = midpoint nb j in
              let indep = sx *. sy in
              let neg_end = Float.max 0.0 (sx +. sy -. 1.0) in
              let pos_end = Float.min sx sy in
              let w = wi *. wj in
              deposit_uniform ~mass ~slope neg_end indep (w *. 0.5);
              deposit_uniform ~mass ~slope indep pos_end (w *. 0.5)
            end
          done
        end
      done);
  (* Fold the difference array into per-bin mass. *)
  let h = 1.0 /. float_of_int n in
  let running = ref 0.0 in
  let d =
    Array.mapi
      (fun i m ->
        running := !running +. slope.(i);
        m +. (!running *. h))
      mass
  in
  normalize d

let or_ ~corr a b = neg (and_ ~corr (neg a) (neg b))

let join = and_

let and_self ~corr t = and_ ~corr t t

let or_self ~corr t = or_ ~corr t t

let chain ~op n t =
  if n < 0 then invalid_arg "Dist.chain";
  let rec loop n acc = if n = 0 then acc else loop (n - 1) (op acc) in
  loop n t

let pdf_at t s = t.d.(bin_of (bins t) s)

let cdf t s =
  let n = bins t in
  let s = clamp01 s in
  let h = 1.0 /. float_of_int n in
  let full = int_of_float (s /. h) in
  let full = Int.min full n in
  let acc = ref 0.0 in
  for i = 0 to full - 1 do
    acc := !acc +. (t.d.(i) *. h)
  done;
  if full < n then begin
    let part = s -. (float_of_int full *. h) in
    acc := !acc +. (t.d.(full) *. part)
  end;
  Float.min 1.0 !acc

let mass_below = cdf

let quantile t p =
  let n = bins t in
  let h = 1.0 /. float_of_int n in
  let p = Rdb_util.Stats.clamp p ~lo:0.0 ~hi:1.0 in
  let rec loop i acc =
    if i >= n then 1.0
    else begin
      let m = t.d.(i) *. h in
      if acc +. m >= p then begin
        let frac = if m > 0.0 then (p -. acc) /. m else 0.0 in
        (float_of_int i +. frac) *. h
      end
      else loop (i + 1) (acc +. m)
    end
  in
  loop 0 0.0

let expectation t f =
  let n = bins t in
  let h = 1.0 /. float_of_int n in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (t.d.(i) *. h *. f (midpoint n i))
  done;
  !acc

let mean t = expectation t (fun s -> s)

let variance t =
  let m = mean t in
  expectation t (fun s -> (s -. m) *. (s -. m))

let stddev t = sqrt (variance t)

let sample rng t = quantile t (Rdb_util.Prng.float rng 1.0)

let scale_cost t cmax =
  if cmax <= 0.0 then invalid_arg "Dist.scale_cost";
  fun x -> if x < 0.0 || x > cmax then 0.0 else pdf_at t (x /. cmax) /. cmax

let is_close ?(tolerance = 0.05) a b =
  if bins a <> bins b then invalid_arg "Dist.is_close: bin mismatch";
  let n = bins a in
  let h = 1.0 /. float_of_int n in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (Float.abs (a.d.(i) -. b.d.(i)) *. h)
  done;
  !acc <= tolerance

let pp fmt t =
  Format.fprintf fmt "mean=%.4f sd=%.4f q25=%.4f q50=%.4f q75=%.4f" (mean t) (stddev t)
    (quantile t 0.25) (quantile t 0.5) (quantile t 0.75)
