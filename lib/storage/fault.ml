module Prng = Rdb_util.Prng

type file_class = Heap | Index | Spill | Other
type kind = Transient | Persistent | Corrupt | Spill_full

type failure = {
  file : int;
  index : int;
  class_ : file_class;
  kind : kind;
}

exception Injected of failure

type plan = {
  seed : int;
  transient_read_rate : float;
  transient_classes : file_class list;
  persistent_files : int list;
  corrupt_blocks : (int * int) list;
  spill_write_budget : int option;
  fail_at_access : (int * int) list;
}

let null_plan =
  {
    seed = 0;
    transient_read_rate = 0.0;
    transient_classes = [];
    persistent_files = [];
    corrupt_blocks = [];
    spill_write_budget = None;
    fail_at_access = [];
  }

let plan ?(transient_read_rate = 0.0) ?(transient_classes = [ Heap; Index; Spill ])
    ?(persistent_files = []) ?(corrupt_blocks = []) ?spill_write_budget
    ?(fail_at_access = []) ~seed () =
  if transient_read_rate < 0.0 || transient_read_rate > 1.0 then
    invalid_arg "Fault.plan: transient_read_rate outside [0,1]";
  List.iter
    (fun (_, n) -> if n < 1 then invalid_arg "Fault.plan: fail_at_access counts from 1")
    fail_at_access;
  {
    seed;
    transient_read_rate;
    transient_classes;
    persistent_files;
    corrupt_blocks;
    spill_write_budget;
    fail_at_access;
  }

type t = {
  plan : plan;
  prng : Prng.t;
  mutable corrupt_pending : (int * int) list;
  mutable spill_writes : int;
  read_counts : (int, int) Hashtbl.t;  (* file -> read accesses so far *)
  mutable n_transient : int;
  mutable n_persistent : int;
  mutable n_corrupt : int;
  mutable n_spill : int;
}

let create plan =
  {
    plan;
    prng = Prng.create ~seed:plan.seed;
    corrupt_pending = plan.corrupt_blocks;
    spill_writes = 0;
    read_counts = Hashtbl.create 8;
    n_transient = 0;
    n_persistent = 0;
    n_corrupt = 0;
    n_spill = 0;
  }

let persistent t ~file = List.mem file t.plan.persistent_files

let transient_scope t ~cls =
  t.plan.transient_read_rate > 0.0 && List.mem cls t.plan.transient_classes

let read_accesses t ~file =
  match Hashtbl.find_opt t.read_counts file with Some n -> n | None -> 0

let on_read t ~cls ~file ~index ~hit =
  if t.plan.fail_at_access <> [] then begin
    (* The schedule counts *every* read access (hit or miss), so the
       firing point does not depend on cache residency: "the Nth access
       to file f" means the same access in every run. *)
    let n = read_accesses t ~file + 1 in
    Hashtbl.replace t.read_counts file n;
    if List.mem (file, n) t.plan.fail_at_access then begin
      t.n_transient <- t.n_transient + 1;
      raise (Injected { file; index; class_ = cls; kind = Transient })
    end
  end;
  if persistent t ~file then begin
    t.n_persistent <- t.n_persistent + 1;
    raise (Injected { file; index; class_ = cls; kind = Persistent })
  end;
  if (not hit) && transient_scope t ~cls
     && Prng.float t.prng 1.0 < t.plan.transient_read_rate
  then begin
    t.n_transient <- t.n_transient + 1;
    raise (Injected { file; index; class_ = cls; kind = Transient })
  end

let on_write t ~cls ~file ~index =
  if persistent t ~file then begin
    t.n_persistent <- t.n_persistent + 1;
    raise (Injected { file; index; class_ = cls; kind = Persistent })
  end;
  if cls = Spill then begin
    t.spill_writes <- t.spill_writes + 1;
    match t.plan.spill_write_budget with
    | Some budget when t.spill_writes > budget ->
        t.n_spill <- t.n_spill + 1;
        raise (Injected { file; index; class_ = cls; kind = Spill_full })
    | _ -> ()
  end

let take_corruption t ~file ~index =
  if List.mem (file, index) t.corrupt_pending then begin
    t.corrupt_pending <-
      List.filter (fun b -> b <> (file, index)) t.corrupt_pending;
    t.n_corrupt <- t.n_corrupt + 1;
    true
  end
  else false

let is_transient f = f.kind = Transient
let injected_transient t = t.n_transient
let injected_persistent t = t.n_persistent
let injected_corrupt t = t.n_corrupt
let injected_spill t = t.n_spill
let injected_total t = t.n_transient + t.n_persistent + t.n_corrupt + t.n_spill

let class_name = function
  | Heap -> "heap"
  | Index -> "index"
  | Spill -> "spill"
  | Other -> "other"

let kind_name = function
  | Transient -> "transient"
  | Persistent -> "persistent"
  | Corrupt -> "corrupt"
  | Spill_full -> "spill-full"

let describe f =
  Printf.sprintf "%s %s fault on %s file %d block %d" (kind_name f.kind)
    (match f.kind with Spill_full -> "write" | _ -> "read")
    (class_name f.class_) f.file f.index

(* FNV-1a over machine ints / string bytes; order-sensitive. *)
let crc_init = 0xcbf29ce4
let fnv_prime = 0x01000193

let crc_int acc v =
  let acc = (acc lxor (v land 0xffff)) * fnv_prime in
  let acc = (acc lxor ((v lsr 16) land 0xffffffff)) * fnv_prime in
  acc land max_int

let crc_bytes acc s =
  let acc = ref (crc_int acc (String.length s)) in
  for i = 0 to String.length s - 1 do
    acc := (!acc lxor Char.code (String.unsafe_get s i)) * fnv_prime land max_int
  done;
  !acc

let crc_scramble crc = crc lxor 0x5a5a5a5a
