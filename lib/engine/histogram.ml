open Rdb_data
open Rdb_storage

type t = {
  column : string;
  lo : float;
  hi : float;
  counts : float array;
  total : float;
  rows_at_build : int;
  build_cost : float;
}

let build ?(buckets = 64) table ~column meter =
  let schema = Table.schema table in
  let col =
    match Schema.find schema column with
    | Some i -> i
    | None -> invalid_arg ("Histogram.build: unknown column " ^ column)
  in
  let before = Cost.total meter in
  (* Pass 1: bounds.  Pass 2: bucket counts.  Two full scans is how the
     real method pays for itself. *)
  let lo = ref infinity and hi = ref neg_infinity in
  Heap_file.iter (Table.heap table) meter (fun _ row ->
      match Value.as_float (Row.get row col) with
      | Some v ->
          if v < !lo then lo := v;
          if v > !hi then hi := v
      | None -> ());
  let lo = !lo and hi = !hi in
  let counts = Array.make buckets 0.0 in
  let total = ref 0.0 in
  if lo <= hi then begin
    let width = Float.max 1e-9 ((hi -. lo) /. float_of_int buckets) in
    Heap_file.iter (Table.heap table) meter (fun _ row ->
        match Value.as_float (Row.get row col) with
        | Some v ->
            let b = Int.min (buckets - 1) (int_of_float ((v -. lo) /. width)) in
            counts.(b) <- counts.(b) +. 1.0;
            total := !total +. 1.0
        | None -> ())
  end;
  {
    column;
    lo;
    hi;
    counts;
    total = !total;
    rows_at_build = Table.row_count table;
    build_cost = Cost.total meter -. before;
  }

let built_at_rows t = t.rows_at_build
let build_cost t = t.build_cost

(* Feedback cells for histogram estimates live under a name distinct
   from any index so they never alias the descent-estimate cells. *)
let feedback_name t = "histogram:" ^ t.column

let raw_estimate_range t ~lo ~hi =
  if t.total <= 0.0 then 0.0
  else begin
    let n = Array.length t.counts in
    let width = Float.max 1e-9 ((t.hi -. t.lo) /. float_of_int n) in
    let qlo = match lo with Some v -> v | None -> t.lo in
    let qhi = match hi with Some v -> v | None -> t.hi in
    if qlo > qhi then 0.0
    else begin
      let acc = ref 0.0 in
      for b = 0 to n - 1 do
        let b_lo = t.lo +. (float_of_int b *. width) in
        let b_hi = b_lo +. width in
        let overlap = Float.min qhi b_hi -. Float.max qlo b_lo in
        if overlap > 0.0 then acc := !acc +. (t.counts.(b) *. Float.min 1.0 (overlap /. width))
        else if overlap = 0.0 && qlo = qhi && qlo >= b_lo && qlo <= b_hi then
          (* point query: assume uniform spread inside the bucket *)
          acc := !acc +. (t.counts.(b) /. Float.max 1.0 (width +. 1.0))
      done;
      !acc
    end
  end

let estimate_range ?feedback t ~lo ~hi =
  let raw = raw_estimate_range t ~lo ~hi in
  match feedback with
  | None -> raw
  | Some fb -> Feedback.correct fb ~name:(feedback_name t) ~key:(lo, hi) raw

let observe_range t fb ~rate ~lo ~hi ~actual =
  let est = estimate_range ~feedback:fb t ~lo ~hi in
  Feedback.observe fb ~rate ~name:(feedback_name t) ~key:(lo, hi) ~est ~actual

let estimate_predicate ?feedback t pred =
  let open Predicate in
  let range lo hi = Some (estimate_range ?feedback t ~lo ~hi) in
  match pred with
  | Cmp (c, op, Const v) when c = t.column -> (
      match Value.as_float v with
      | None -> None
      | Some x -> (
          match op with
          | Eq -> range (Some x) (Some x)
          | Le -> range None (Some x)
          | Lt -> range None (Some x)
          | Ge -> range (Some x) None
          | Gt -> range (Some x) None
          | Ne -> Some (t.total -. estimate_range ?feedback t ~lo:(Some x) ~hi:(Some x))))
  | Between (c, Const a, Const b) when c = t.column -> (
      match (Value.as_float a, Value.as_float b) with
      | Some x, Some y -> range (Some x) (Some y)
      | _ -> None)
  | _ -> None (* not range-producing: the method's blind spot *)

let pp fmt t =
  Format.fprintf fmt "histogram(%s): %d buckets over [%g, %g], %g rows at build" t.column
    (Array.length t.counts) t.lo t.hi t.total
