open Rdb_data

type t = {
  mutable pages : Bytes.t array;  (* bit [slot] of [pages.(page)] *)
  mutable cardinal : int;
}

let create () = { pages = [||]; cardinal = 0 }

let check name (rid : Rid.t) =
  if rid.page < 0 || rid.slot < 0 then
    invalid_arg (Printf.sprintf "Rid_set.%s: negative RID %s" name (Rid.to_string rid))

let bit_set bits slot =
  let byte = slot lsr 3 in
  byte < Bytes.length bits
  && Char.code (Bytes.unsafe_get bits byte) land (1 lsl (slot land 7)) <> 0

let mem t (rid : Rid.t) =
  check "mem" rid;
  rid.page < Array.length t.pages && bit_set t.pages.(rid.page) rid.slot

(* Doubling growth, at least to [need]: amortized O(1) per add. *)
let grown length need = Int.max need (2 * length)

let add t (rid : Rid.t) =
  check "add" rid;
  if rid.page >= Array.length t.pages then begin
    let pages = Array.make (grown (Array.length t.pages) (rid.page + 1)) Bytes.empty in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  let byte = rid.slot lsr 3 in
  let bits =
    let bits = t.pages.(rid.page) in
    if byte < Bytes.length bits then bits
    else begin
      let wider = Bytes.make (grown (Bytes.length bits) (byte + 1)) '\000' in
      Bytes.blit bits 0 wider 0 (Bytes.length bits);
      t.pages.(rid.page) <- wider;
      wider
    end
  in
  let old = Char.code (Bytes.unsafe_get bits byte) in
  let mask = 1 lsl (rid.slot land 7) in
  if old land mask <> 0 then false
  else begin
    Bytes.unsafe_set bits byte (Char.unsafe_chr (old lor mask));
    t.cardinal <- t.cardinal + 1;
    true
  end

let cardinal t = t.cardinal
