type cost_dist = { density : float -> float; cmax : float }

let of_dist d ~cmax = { density = Rdb_dist.Dist.scale_cost d cmax; cmax }

let l_shaped ~knee ~cmax ?(bins = 512) () =
  if knee <= 0.0 || knee >= cmax then invalid_arg "Competition_math.l_shaped";
  (* Choose hyperbola pole b so the mass below the knee is 1/2:
     F(x) = ln(1 + x/b) / ln(1 + cmax/b); solve F(knee) = 0.5 on b by
     bisection (monotone in b). *)
  let frac = knee /. cmax in
  let mass_below b = log (1.0 +. (frac /. b)) /. log (1.0 +. (1.0 /. b)) in
  let lo = ref 1e-12 and hi = ref 1e6 in
  for _ = 1 to 200 do
    let mid = sqrt (!lo *. !hi) in
    if mass_below mid > 0.5 then lo := mid else hi := mid
  done;
  let b = sqrt (!lo *. !hi) in
  let d = Rdb_dist.Dist.hyperbola ~bins ~b () in
  of_dist d ~cmax

let steps = 2048

let integrate f cmax =
  let h = cmax /. float_of_int steps in
  let acc = ref 0.0 in
  for i = 0 to steps - 1 do
    let x = (float_of_int i +. 0.5) *. h in
    acc := !acc +. (f x *. h)
  done;
  !acc

let mean d = integrate (fun x -> x *. d.density x) d.cmax

let cdf d x =
  if x <= 0.0 then 0.0
  else if x >= d.cmax then 1.0
  else integrate (fun y -> if y <= x then d.density y else 0.0) d.cmax

let mean_below d x =
  let m = cdf d x in
  if m <= 0.0 then 0.0
  else integrate (fun y -> if y <= x then y *. d.density y else 0.0) d.cmax /. m

let quantile d p =
  let h = d.cmax /. float_of_int steps in
  let rec loop i acc =
    if i >= steps then d.cmax
    else begin
      let x = (float_of_int i +. 0.5) *. h in
      let acc = acc +. (d.density x *. h) in
      if acc >= p then x else loop (i + 1) acc
    end
  in
  loop 0 0.0

let switch_cost ~try_ ~fallback ~switch_at =
  let completed = integrate (fun x -> if x <= switch_at then x *. try_.density x else 0.0) try_.cmax in
  let p_fail = 1.0 -. cdf try_ switch_at in
  completed +. (p_fail *. (switch_at +. mean fallback))

let optimal_switch ~try_ ~fallback =
  let best = ref (try_.cmax, switch_cost ~try_ ~fallback ~switch_at:try_.cmax) in
  let n = 200 in
  for i = 1 to n do
    let tau = float_of_int i /. float_of_int n *. try_.cmax in
    let c = switch_cost ~try_ ~fallback ~switch_at:tau in
    if c < snd !best then best := (tau, c)
  done;
  !best

(* Total cost of a concurrent proportional-speed run, for realized
   plan costs xa, xb. *)
let simultaneous_total ~speed_a ~abandon_b_at xa xb =
  let sa = speed_a and sb = 1.0 -. speed_a in
  let wa = xa /. sa in
  (* wall time at which A would complete *)
  let wb_complete = xb /. sb in
  let wb_abandon = abandon_b_at /. sb in
  if xb <= abandon_b_at && wb_complete <= wa then
    (* B completes first: both consumed until then. *)
    wb_complete
  else if wa <= wb_abandon then
    (* A completes while B still running: consumed = wall time. *)
    wa
  else
    (* B abandoned at wb_abandon, A continues alone at full speed. *)
    wb_abandon +. (xa -. (sa *. wb_abandon))

(* Mass-conserving discretization: bin mass from CDF differences, so
   point-like spikes are never lost between sample points. *)
let grid_masses d k =
  let h = d.cmax /. float_of_int k in
  let prev = ref 0.0 in
  Array.init k (fun i ->
      let x_hi = float_of_int (i + 1) *. h in
      let c = cdf d x_hi in
      let mass = c -. !prev in
      prev := c;
      ((float_of_int i +. 0.5) *. h, Float.max 0.0 mass))

let simultaneous_cost ~a ~b ~speed_a ~abandon_b_at =
  if speed_a <= 0.0 || speed_a >= 1.0 then invalid_arg "Competition_math.simultaneous_cost";
  let k = 256 in
  let ga = grid_masses a k and gb = grid_masses b k in
  let acc = ref 0.0 in
  Array.iter
    (fun (xa, wa) ->
      if wa > 0.0 then
        Array.iter
          (fun (xb, wb) ->
            if wb > 0.0 then
              acc := !acc +. (wa *. wb *. simultaneous_total ~speed_a ~abandon_b_at xa xb))
          gb)
    ga;
  !acc

let optimal_simultaneous ~a ~b =
  let best = ref (0.5, b.cmax, infinity) in
  List.iter
    (fun speed_a ->
      List.iter
        (fun q ->
          let abandon = quantile b q in
          if abandon > 0.0 then begin
            let c = simultaneous_cost ~a ~b ~speed_a ~abandon_b_at:abandon in
            let _, _, bc = !best in
            if c < bc then best := (speed_a, abandon, c)
          end)
        [ 0.3; 0.5; 0.55; 0.6; 0.7; 0.8; 0.9; 0.95; 0.99 ])
    [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ];
  !best
