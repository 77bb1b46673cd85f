open Rdb_data
open Rdb_engine
module Prng = Rdb_util.Prng

type spec = {
  label : string;
  pred : Predicate.t;
  env : Predicate.env;
  order_by : string list;
  limit : int option;
  fast_first : bool;
}

type arrival = {
  spec : spec;
  arrive_at : int;
  quota : float option;
  deadline : float option;
}

(* Zipf-flavoured draw without the full sampler: low ids are hot. *)
let skewed rng n = Prng.int rng (1 + Prng.int rng n)

(* Parameter bounds: the {!Datasets.orders} column ranges. *)
let customers = 2000
let products = 500
let days = 365
let price_max = 5000

let template rng i =
  let open Predicate in
  match i mod 5 with
  | 0 ->
      (* host-variable range sweep: selectivity unknown at compile
         time — the paper's §4 motivating shape *)
      let p = Prng.int rng price_max in
      {
        label = Printf.sprintf "hostvar-price>=%d" p;
        pred = param_cmp "PRICE" Ge "P";
        env = [ ("P", Value.int p) ];
        order_by = [];
        limit = None;
        fast_first = false;
      }
  | 1 ->
      let c = skewed rng customers in
      {
        label = Printf.sprintf "point-cust=%d" c;
        pred = "CUSTOMER" =% Value.int c;
        env = [];
        order_by = [];
        limit = None;
        fast_first = false;
      }
  | 2 ->
      let c = skewed rng customers and p = skewed rng products in
      {
        label = Printf.sprintf "or-cust=%d-prod=%d" c p;
        pred = Or [ "CUSTOMER" =% Value.int c; "PRODUCT" =% Value.int p ];
        env = [];
        order_by = [];
        limit = None;
        fast_first = false;
      }
  | 3 ->
      (* multi-index AND: the Jscan shape *)
      let c = skewed rng customers in
      let lo = Prng.int rng days in
      let hi = min (days - 1) (lo + 30 + Prng.int rng 60) in
      {
        label = Printf.sprintf "jscan-cust=%d-day[%d,%d]" c lo hi;
        pred =
          And
            [ "CUSTOMER" =% Value.int c; between "DAY" (Value.int lo) (Value.int hi) ];
        env = [];
        order_by = [];
        limit = None;
        fast_first = false;
      }
  | _ ->
      let p = skewed rng products in
      {
        label = Printf.sprintf "limit-prod=%d" p;
        pred = "PRODUCT" =% Value.int p;
        env = [];
        order_by = [];
        limit = Some (5 + Prng.int rng 20);
        fast_first = true;
      }

let orders_mix ~seed ~count () =
  let rng = Prng.create ~seed in
  let specs = Array.init count (template rng) in
  Prng.shuffle rng specs;
  Array.to_list specs

(* Percent of storm arrivals that carry a cost deadline. *)
let deadline_pct = 25

(* Quiet ticks between two waves of a storm. *)
let drain_gap = 64

let storm ?(waves = 1) ~seed ~count () =
  if count < 0 then invalid_arg "Traffic.storm: count < 0";
  if waves < 1 then invalid_arg "Traffic.storm: waves < 1";
  let rng = Prng.create ~seed in
  (* Quota declarations are the heavy tail: most sessions declare a
     small bounded quota, a Zipf tail declares large or unbounded
     work — exactly the mix shed-largest-quota is meant to triage. *)
  let quota_zipf = Zipf.create ~n:32 ~theta:1.0 in
  (* Arrival gaps are Zipf too: rank 1 (gap 0) dominates, so arrivals
     come in bursts — the storm front — with occasional quiet
     stretches that let the pool drain. *)
  let gap_zipf = Zipf.create ~n:8 ~theta:1.2 in
  let at = ref 0 in
  (* Wave structure for thousand-session storms: the count splits into
     [waves] equal fronts separated by a [drain_gap] quiet stretch.  At
     the default [waves = 1] no boundary ever fires, so the arrival
     stream (and every PRNG draw) is byte-identical to the single-front
     storm. *)
  let wave_len = if waves = 1 then max 1 count else (count + waves - 1) / waves in
  List.init count (fun i ->
      let spec = template rng i in
      if i > 0 && i mod wave_len = 0 then at := !at + drain_gap;
      at := !at + (Zipf.draw gap_zipf rng - 1);
      let rank = Zipf.draw quota_zipf rng in
      let quota =
        if rank >= 24 then None else Some (25.0 *. float_of_int rank)
      in
      let deadline =
        if Prng.int rng 100 < deadline_pct then
          (* gap-distributed deadlines: mostly tight (0 times out on
             arrival, 15 after a grant or two), occasionally roomy *)
          Some (float_of_int (Zipf.draw gap_zipf rng - 1) *. 15.0)
        else None
      in
      { spec; arrive_at = !at; quota; deadline })
