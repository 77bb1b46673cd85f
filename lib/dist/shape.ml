type classification = L_left | L_right | Bell | Flat

let skewness d =
  let m = Dist.mean d in
  let sd = Dist.stddev d in
  if sd <= 1e-12 then 0.0
  else Dist.expectation d (fun s -> ((s -. m) /. sd) ** 3.0)

let concentration d = Dist.quantile d 0.5

let classify d =
  let med = concentration d in
  let sd = Dist.stddev d in
  let uniform_sd = 1.0 /. sqrt 12.0 in
  if med <= 0.2 then L_left
  else if med >= 0.8 then L_right
  else if sd >= uniform_sd *. 0.85 then Flat
  else Bell

let classification_to_string = function
  | L_left -> "L-left"
  | L_right -> "L-right"
  | Bell -> "bell"
  | Flat -> "flat"
