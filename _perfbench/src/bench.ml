(* Shared machinery of the benchmark: the wall clock, sample buffers,
   percentiles, metric output, the span recorder of the traced run, the
   cursor read, and set-up timing.

   Wall-clock code lives here and in the workload files only; the
   library under test never reads a clock. *)

let now = Unix.gettimeofday

(* --- sample buffers ------------------------------------------------- *)

(* A growable float buffer.  Its backing array lives on the major heap
   (it is larger than a minor-heap block), so recording a sample does not
   add to the minor words a run reports. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end

(* A growable buffer of any values (the per-op answers a run keeps for
   its checks).  Created with room for [n], it does not grow, and so
   does not allocate, before the [n]th value. *)
module Buf = struct
  type 'a t = { mutable items : 'a array; mutable count : int; dummy : 'a }

  let create n dummy = { items = Array.make (max 1 n) dummy; count = 0; dummy }

  let add t x =
    if t.count = Array.length t.items then begin
      let d = Array.make (2 * t.count) t.dummy in
      Array.blit t.items 0 d 0 t.count;
      t.items <- d
    end;
    t.items.(t.count) <- x;
    t.count <- t.count + 1

  let length t = t.count
  let get t i = t.items.(i)
end

(* Linear-interpolated percentile; [p] in [0,1].  An empty sample reads
   as 0 (the per-layer value of a layer the workload never calls). *)
let percentile xs p = if Array.length xs = 0 then 0.0 else Rdb_util.Stats.percentile xs p
let median xs = percentile xs 0.5

(* Percentile of integer-valued samples (such as tick counts), read
   continuously: the value
   [v] holding the [p] quantile stands for the interval [v - 0.5,
   v + 0.5], and the quantile is placed inside it in proportion to the
   samples below it (the grouped-data percentile).  A median among
   counts of 3, 4 and 5 then reads 3.7 rather than jumping a step. *)
let grouped_percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let xs = Array.copy xs in
    Array.sort compare xs;
    let target = p *. float_of_int n in
    let v = xs.(min (n - 1) (int_of_float target)) in
    let below = ref 0 and at = ref 0 in
    Array.iter (fun x -> if x < v then incr below else if x = v then incr at) xs;
    v -. 0.5 +. ((target -. float_of_int !below) /. float_of_int !at)
  end

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* --- key streams --------------------------------------------------------

   Workload keys come from the seed, but are drawn so that a run's key
   mix does not hinge on whether a rare hot key happens to be drawn: the
   data are Zipf-skewed, so one hot key can cost a hundred cold ones. *)

(* Keys 1..n in a seeded random order, reshuffled after each full cycle:
   every n consecutive draws hold every key exactly once. *)
let cycle rng n =
  let keys = Array.init n (fun i -> i + 1) and pos = ref n in
  fun () ->
    if !pos = n then begin
      Rdb_util.Prng.shuffle rng keys;
      pos := 0
    end;
    let k = keys.(!pos) in
    incr pos;
    k

(* --- garbage collector readings ------------------------------------- *)

let minor_words () = Gc.minor_words ()
let mb_of_words w = fi w *. fi (Sys.word_size / 8) /. 1048576.0
let peak_heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* --- inputs and answers --------------------------------------------------- *)

(* The rows of a table, by a plain heap scan charged to a throwaway
   meter: the ground truth the answer checks compare against. *)
let heap_rows table =
  let acc = ref [] in
  Rdb_storage.Heap_file.iter (Rdb_engine.Table.heap table) (Rdb_storage.Cost.create ())
    (fun _ row -> acc := row :: !acc);
  Array.of_list (List.rev !acc)

(* An order-free digest of a row multiset: count and hash sum. *)
let multiset rows =
  List.fold_left
    (fun (n, h) row -> (n + 1, h + Hashtbl.hash_param 20 100 row))
    (0, 0) rows

let index_nodes tables =
  let open Rdb_engine in
  List.fold_left
    (fun a t ->
      List.fold_left
        (fun a (i : Table.index) -> a + Rdb_btree.Btree.node_count i.Table.tree)
        a (Table.indexes t))
    0 tables

(* --- metric output -------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Every digit a double carries; non-finite values cannot appear in
   JSON, so they mark the run incorrect (see [emit]). *)
let json_number v = Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  List.iter
    (fun m -> Printf.printf "metric %-38s %16.6f %s\n" m.name m.value m.unit_)
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number (if Float.is_finite m.value then m.value else 0.0))
          m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (correct && finite) attempted failed (String.concat ", " fields)

(* --- spans (traced run only) ----------------------------------------

   A span brackets one call the benchmark makes into a layer: its name,
   start, end, parent span and op id, plus the minor words and the
   pool's global-meter cost charged while it was open.  Spans stay in
   memory and are written out when the run ends.  A layer's self time is
   its spans' duration minus the part covered by their child spans. *)

module Spans = struct
  type span = {
    id : int;
    parent : int;  (** -1 at top level *)
    op : int;
    sp_name : string;
    start : float;
    stop : float;
    words : float;
    cost : float;
  }

  type frame = {
    f_id : int;
    f_start : float;
    f_words : float;
    f_cost : float;
    mutable child : float;  (** seconds covered by closed child spans *)
  }

  type layer = {
    mutable calls : int;
    mutable total : float;
    mutable self : float;
    mutable l_words : float;
  }

  type t = {
    meter : Rdb_storage.Cost.t;  (** the pool's global meter *)
    mutable spans : span list;  (** newest first *)
    mutable next_id : int;
    mutable stack : frame list;
    mutable op : int;
    layers : (string, layer) Hashtbl.t;
  }

  let create meter =
    { meter; spans = []; next_id = 0; stack = []; op = 0; layers = Hashtbl.create 16 }

  let set_op t op = t.op <- op

  let layer t name =
    match Hashtbl.find_opt t.layers name with
    | Some l -> l
    | None ->
        let l = { calls = 0; total = 0.0; self = 0.0; l_words = 0.0 } in
        Hashtbl.add t.layers name l;
        l

  let with_span t name f =
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with fr :: _ -> fr.f_id | [] -> -1 in
    let fr =
      {
        f_id = id;
        f_start = now ();
        f_words = minor_words ();
        f_cost = Rdb_storage.Cost.total t.meter;
        child = 0.0;
      }
    in
    t.stack <- fr :: t.stack;
    let close () =
      let stop = now () in
      let words = minor_words () -. fr.f_words in
      let cost = Rdb_storage.Cost.total t.meter -. fr.f_cost in
      t.stack <- List.tl t.stack;
      let dur = stop -. fr.f_start in
      (match t.stack with p :: _ -> p.child <- p.child +. dur | [] -> ());
      let l = layer t name in
      l.calls <- l.calls + 1;
      l.total <- l.total +. dur;
      l.self <- l.self +. (dur -. fr.child);
      l.l_words <- l.l_words +. words;
      t.spans <-
        { id; parent; op = t.op; sp_name = name; start = fr.f_start; stop; words; cost }
        :: t.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e

  let self_seconds t name =
    match Hashtbl.find_opt t.layers name with Some l -> l.self | None -> 0.0

  let calls t name =
    match Hashtbl.find_opt t.layers name with Some l -> l.calls | None -> 0

  let total_seconds t name =
    match Hashtbl.find_opt t.layers name with Some l -> l.total | None -> 0.0

  let words t name =
    match Hashtbl.find_opt t.layers name with Some l -> l.l_words | None -> 0.0

  (* One tab-separated line per span, in opening order, under [dir]. *)
  let write t ~dir ~file =
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir file in
    let oc = open_out path in
    output_string oc "id\tparent\top\tname\tstart_s\tstop_s\tminor_words\tpool_cost\n";
    let spans = List.sort (fun a b -> compare a.id b.id) t.spans in
    let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
    List.iter
      (fun s ->
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\t%.0f\t%.3f\n" s.id s.parent s.op
          s.sp_name (s.start -. t0) (s.stop -. t0) s.words s.cost)
      spans;
    close_out oc;
    path
end

(* [span tracer name f] runs [f], inside a recorded span when tracing. *)
let span tracer name f =
  match tracer with None -> f () | Some t -> Spans.with_span t name f

(* --- the cursor API ------------------------------------------------- *)

(* One retrieval through the cursor API: [open_], [fetch] up to [limit]
   rows, [close], each inside a span when tracing.  [first_row] gets the
   seconds from the [open_] call to the first row (or to exhaustion).
   Returns the rows, last first, and the summary [close] gave. *)
let cursor_read ~config tracer table req ~limit ~first_row =
  let module R = Rdb_core.Retrieval in
  let t0 = now () in
  let cur = span tracer "retrieval.open" (fun () -> R.open_ ~config table req) in
  let got =
    span tracer "retrieval.fetch" (fun () ->
        let rec go acc n =
          if match limit with Some k -> n >= k | None -> false then acc
          else begin
            let row = R.fetch cur in
            if n = 0 then first_row (now () -. t0);
            match row with Some row -> go (row :: acc) (n + 1) | None -> acc
          end
        in
        go [] 0)
  in
  (got, span tracer "retrieval.close" (fun () -> R.close cur))

(* --- run environment ------------------------------------------------ *)

let print_environment () =
  Printf.printf "env ocaml=%s OCAMLRUNPARAM=%s nproc=%d\n" Sys.ocaml_version
    (match Sys.getenv_opt "OCAMLRUNPARAM" with Some s -> s | None -> "<unset>")
    (Domain.recommended_domain_count ())

(* Each block's rate, in ops/s, as a diagnostic line. *)
let print_blocks label block_s ops_per_block =
  Printf.printf "%s block rates:%s\n" label
    (String.concat ""
       (List.map
          (fun s -> Printf.sprintf " %.0f" (fi ops_per_block /. s))
          (Array.to_list (Samples.to_array block_s))))

let print_times label xs =
  Printf.printf "%s: %s\n" label
    (String.concat " " (List.map (Printf.sprintf "%.4f") (Array.to_list xs)))

(* The benchmark's set-up time: [k] independent set-ups after an untimed
   first one (a process's first set-up runs cold and reads 10-20% slow),
   median wall seconds, keeping the last result. *)
let repeated_setup k f =
  ignore (Sys.opaque_identity (f ()));
  let times = Array.make k 0.0 in
  let last = ref None in
  for i = 0 to k - 1 do
    last := None;
    Gc.full_major ();
    let t0 = now () in
    let r = f () in
    times.(i) <- now () -. t0;
    last := Some r
  done;
  print_times "setup_s each" times;
  match !last with
  | Some r -> (r, median times)
  | None -> invalid_arg "repeated_setup: k < 1"

let write_spans tr ~workload ~seed =
  (try Sys.mkdir "_perfbench_build" 0o755 with Sys_error _ -> ());
  let path =
    Spans.write tr ~dir:"_perfbench_build/spans"
      ~file:(Printf.sprintf "spans-%s-seed%d.tsv" workload seed)
  in
  Printf.printf "spans: %d written to %s\n" tr.Spans.next_id path
