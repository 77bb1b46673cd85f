(* The log-probability that a given block of [m] records receives none
   of [i] draws is the running sum

     s(0) = 0,  s(i + 1) = s(i) + log (n - m - i) - log (n - i)

   ([prod_{i=0}^{k-1} (n - m - i) / (n - i)] in log space, for stability
   on large tables).  A table per (n, m) keeps the sums computed so far
   and extends them by this same left fold, in the same order, so a sum
   read back is bit-identical to a fresh loop's.  At most [max_tables]
   tables are kept: a new key past that clears them all. *)
type table = { n : int; m : int; mutable sums : float array; mutable len : int }

let max_tables = 16
let tables : table list ref = ref []

let rec table_of n m = function
  | p :: rest -> if p.n = n && p.m = m then p else table_of n m rest
  | [] ->
      if List.length !tables >= max_tables then tables := [];
      let p = { n; m; sums = Array.make 64 0.0; len = 1 } in
      tables := p :: !tables;
      p

(* s(k), extending the table through k first. *)
let log_miss p k =
  if k >= p.len then begin
    if k >= Array.length p.sums then begin
      let sums = Array.make (Int.max (k + 1) (2 * Array.length p.sums)) 0.0 in
      Array.blit p.sums 0 sums 0 p.len;
      p.sums <- sums
    end;
    for i = p.len - 1 to k - 1 do
      p.sums.(i + 1) <-
        p.sums.(i) +. log (float_of_int (p.n - p.m - i)) -. log (float_of_int (p.n - i))
    done;
    p.len <- k + 1
  end;
  p.sums.(k)

let blocks ~n ~per_block ~k =
  if n <= 0 || per_block <= 0 || k <= 0 then 0.0
  else begin
    let b = (n + per_block - 1) / per_block in
    if k >= n then float_of_int b
    else begin
      let m = per_block in
      if n - m < k then float_of_int b
      else float_of_int b *. (1.0 -. exp (log_miss (table_of n m !tables) k))
    end
  end
