open Rdb_data
open Rdb_storage
module Dynarray = Rdb_util.Dynarray

type tier = Inline | Buffered | Spilled

let inline_capacity = 20

type t = {
  pool : Buffer_pool.t;
  meter : Cost.t;
  budget : int;
  inline : Rid.t array;
  mutable inline_len : int;
  mutable buffer : Rid.t Dynarray.t option;
  mutable spill : Spill.t option;
  mutable bitmap : Bitmap.t option; (* maintained from first spill on *)
  mutable total : int;
  mutable sealed : bool;
}

let create ?(memory_budget = 4096) pool meter =
  if memory_budget < inline_capacity then
    invalid_arg "Rid_list.create: budget below inline capacity";
  {
    pool;
    meter;
    budget = memory_budget;
    inline = Array.make inline_capacity (Rid.make ~page:0 ~slot:0);
    inline_len = 0;
    buffer = None;
    spill = None;
    bitmap = None;
    total = 0;
    sealed = false;
  }

let count t = t.total

let tier t =
  if t.spill <> None then Spilled else if t.buffer <> None then Buffered else Inline

let promote_to_buffer t =
  let buf = Dynarray.create () in
  for i = 0 to t.inline_len - 1 do
    Dynarray.push buf t.inline.(i)
  done;
  t.buffer <- Some buf

let promote_to_spill t buf =
  let spill = Spill.create t.pool in
  let bitmap = Bitmap.create ~bits:(16 * t.budget) in
  Dynarray.iter (Bitmap.add bitmap) buf;
  Spill.append spill t.meter (Dynarray.to_array buf);
  t.buffer <- None;
  t.spill <- Some spill;
  t.bitmap <- Some bitmap

let rec add t rid =
  if t.sealed then invalid_arg "Rid_list.add: sealed";
  t.total <- t.total + 1;
  match (t.spill, t.buffer) with
  | Some spill, _ ->
      Spill.append spill t.meter [| rid |];
      (match t.bitmap with Some b -> Bitmap.add b rid | None -> assert false)
  | None, Some buf ->
      if Dynarray.length buf >= t.budget then begin
        promote_to_spill t buf;
        add_after_spill t rid
      end
      else Dynarray.push buf rid
  | None, None ->
      if t.inline_len < inline_capacity then begin
        t.inline.(t.inline_len) <- rid;
        t.inline_len <- t.inline_len + 1
      end
      else begin
        promote_to_buffer t;
        match t.buffer with
        | Some buf -> Dynarray.push buf rid
        | None -> assert false
      end

and add_after_spill t rid =
  match (t.spill, t.bitmap) with
  | Some spill, Some b ->
      Spill.append spill t.meter [| rid |];
      Bitmap.add b rid
  | _ -> assert false

let seal t =
  if not t.sealed then begin
    (match t.spill with Some s -> Spill.seal s t.meter | None -> ());
    t.sealed <- true
  end

let in_memory_array t =
  match t.buffer with
  | Some buf -> Dynarray.to_array buf
  | None -> Array.sub t.inline 0 t.inline_len

let filter t =
  seal t;
  match t.bitmap with
  | Some b -> Filter.Hashed b
  | None ->
      let a = in_memory_array t in
      let sorted = Rdb_util.Sorted.merge_dedup ~cmp:Rid.compare a in
      Filter.of_sorted_array sorted

let to_sorted_array t =
  seal t;
  let a =
    match t.spill with
    | Some spill -> Spill.to_array spill t.meter
    | None -> in_memory_array t
  in
  Rdb_util.Sorted.merge_dedup ~cmp:Rid.compare a

let iter_unordered t f =
  seal t;
  match t.spill with
  | Some spill -> Spill.iter spill t.meter f
  | None -> Array.iter f (in_memory_array t)

let destroy t =
  match t.spill with Some s -> Spill.destroy s | None -> ()
