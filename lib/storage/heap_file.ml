open Rdb_data
module Dynarray = Rdb_util.Dynarray

(* A page's slots live in [slots.(0 .. used - 1)], grown by doubling as
   [Dynarray.push] grows; the scan reads them without a call. *)
type page = {
  mutable slots : Row.t option array; (* None = tombstone *)
  mutable used : int;
  mutable bytes_used : int;
  (* Lazily-maintained content checksum: mutations invalidate, the
     next cold read under a fault injector recomputes (dirty page) or
     verifies (clean page).  Without an injector the fields are
     untouched, keeping the seed cost profile bit-identical. *)
  mutable crc : int;
  mutable crc_valid : bool;
}

type t = {
  pool : Buffer_pool.t;
  file : int;
  page_bytes : int;
  pages : page Dynarray.t;
  mutable live : int;
}

let create ?(page_bytes = 8192) pool =
  if page_bytes < 64 then invalid_arg "Heap_file.create: page too small";
  let file = Buffer_pool.fresh_file pool in
  Buffer_pool.classify pool ~file Fault.Heap;
  {
    pool;
    file;
    page_bytes;
    pages = Dynarray.create ();
    live = 0;
  }

let file_id t = t.file
let page_count t = Dynarray.length t.pages
let record_count t = t.live

let records_per_page t =
  let pages = Int.max 1 (page_count t) in
  Int.max 1 ((t.live + pages - 1) / pages)

let block t index : Buffer_pool.block = { file = t.file; index }

(* A record's stored size: a 2-byte field count, then per field a tag
   byte and its payload — nothing (NULL), 8 bytes (Int, Float), or a
   4-byte length and the string's bytes.  Pages fill, and so number
   their RIDs, by it. *)
let field_bytes = function
  | Value.Null -> 1
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 5 + String.length s

let record_bytes row = Array.fold_left (fun acc v -> acc + field_bytes v) 2 row

let insert t row =
  let size = record_bytes row + 4 (* slot directory entry *) in
  let page, page_no =
    match Dynarray.last t.pages with
    | Some p when p.bytes_used + size <= t.page_bytes -> (p, Dynarray.length t.pages - 1)
    | _ ->
        let p =
          { slots = [||]; used = 0; bytes_used = 0;
            crc = Fault.crc_init; crc_valid = false }
        in
        Dynarray.push t.pages p;
        (p, Dynarray.length t.pages - 1)
  in
  let slot = page.used in
  if slot = Array.length page.slots then begin
    let slots = Array.make (Int.max 8 (2 * slot)) None in
    Array.blit page.slots 0 slots 0 slot;
    page.slots <- slots
  end;
  page.slots.(slot) <- Some (Array.copy row);
  page.used <- slot + 1;
  page.bytes_used <- page.bytes_used + size;
  page.crc_valid <- false;
  t.live <- t.live + 1;
  Rid.make ~page:page_no ~slot

(* The page checksum folds every live slot's field count and then its
   fields, each as its tag then its payload (a string by its bytes); a
   tombstone folds a 0. *)
let crc_field acc = function
  | Value.Null -> Fault.crc_int acc 0
  | Value.Int i -> Fault.crc_int (Fault.crc_int acc 1) i
  | Value.Float f -> Fault.crc_int (Fault.crc_int acc 2) (Int64.to_int (Int64.bits_of_float f))
  | Value.Str s -> Fault.crc_bytes (Fault.crc_int acc 3) s

let page_crc page =
  let acc = ref Fault.crc_init in
  for i = 0 to page.used - 1 do
    acc :=
      match page.slots.(i) with
      | None -> Fault.crc_int !acc 0
      | Some row -> Array.fold_left crc_field (Fault.crc_int !acc (Array.length row)) row
  done;
  !acc

(* Checksum discipline on a cold read: a dirty page (mutated since the
   last check) gets its crc recomputed — the write-side stamp; a clean
   page is verified against the stored crc.  Verification is modelled
   as free (the bytes are already in hand) and only runs under an
   injector, so injector-off runs are cost- and work-identical. *)
let audit t page page_no inj =
  if not page.crc_valid then begin
    page.crc <- page_crc page;
    page.crc_valid <- true
  end
  else begin
    if Fault.take_corruption inj ~file:t.file ~index:page_no then
      page.crc <- Fault.crc_scramble page.crc;
    if page_crc page <> page.crc then
      raise
        (Fault.Injected
           { Fault.file = t.file; index = page_no; class_ = Fault.Heap;
             kind = Fault.Corrupt })
  end

let get_page t meter page_no =
  if page_no < 0 || page_no >= Dynarray.length t.pages then None
  else begin
    let page = Dynarray.get t.pages page_no in
    (match Buffer_pool.touch_read t.pool meter (block t page_no) with
    | `Hit -> ()
    | `Miss -> (
        match Buffer_pool.injector t.pool with
        | None -> ()
        | Some inj -> audit t page page_no inj));
    Some page
  end

let read_slot page meter (rid : Rid.t) =
  if rid.slot < 0 || rid.slot >= page.used then None
  else begin
    match page.slots.(rid.slot) with
    | None -> None
    | Some _ as row ->
        Cost.charge_cpu meter 1;
        row
  end

let fetch t meter (rid : Rid.t) =
  match get_page t meter rid.page with
  | None -> None
  | Some page -> read_slot page meter rid

(* --- cached fetch -----------------------------------------------------
   Per-RID fetchers (Fscan record fetches, the final stage) often hit
   the same heap page many times in a row — clustered indexes and
   sorted RID lists guarantee it.  A fetch cache remembers the last
   page together with its pool {!Buffer_pool.handle}; a repeat fetch
   re-accesses via {!Buffer_pool.retouch} — identical charges, metrics
   and injector stream, one fewer residency probe.  A stale handle
   (an eviction in its shard since) fails [retouch] and the fetch
   redoes the full lookup, so a cache may outlive a step; holders that
   want a probe per step [invalidate_cache] when their step ends. *)

type fetch_cache = {
  mutable entry : (int * page * Buffer_pool.handle) option; (* page_no *)
}

let fetch_cache () = { entry = None }
let invalidate_cache c = c.entry <- None

let get_page_h t meter page_no =
  if page_no < 0 || page_no >= Dynarray.length t.pages then None
  else begin
    let page = Dynarray.get t.pages page_no in
    let kind, h = Buffer_pool.touch_read_h t.pool meter (block t page_no) in
    (match kind with
    | `Hit -> ()
    | `Miss -> (
        match Buffer_pool.injector t.pool with
        | None -> ()
        | Some inj -> audit t page page_no inj));
    Some (page, h)
  end

let fetch_via t meter cache (rid : Rid.t) =
  let cached =
    match cache.entry with
    | Some (page_no, page, h) when page_no = rid.page ->
        if Buffer_pool.retouch t.pool meter h then Some page else None
    | _ -> None
  in
  match cached with
  | Some page -> read_slot page meter rid
  | None -> (
      cache.entry <- None;
      match get_page_h t meter rid.page with
      | None -> None
      | Some (page, h) ->
          cache.entry <- Some (rid.page, page, h);
          read_slot page meter rid)

let delete t meter (rid : Rid.t) =
  match get_page t meter rid.page with
  | None -> false
  | Some page ->
      if rid.slot < 0 || rid.slot >= page.used then false
      else begin
        match page.slots.(rid.slot) with
        | None -> false
        | Some row ->
            page.slots.(rid.slot) <- None;
            page.bytes_used <- page.bytes_used - (record_bytes row + 4);
            page.crc_valid <- false;
            t.live <- t.live - 1;
            Buffer_pool.write t.pool meter (block t rid.page);
            true
      end

let update t meter (rid : Rid.t) row =
  match get_page t meter rid.page with
  | None -> false
  | Some page ->
      if rid.slot < 0 || rid.slot >= page.used then false
      else begin
        match page.slots.(rid.slot) with
        | None -> false
        | Some old ->
            page.slots.(rid.slot) <- Some (Array.copy row);
            page.bytes_used <- page.bytes_used - record_bytes old + record_bytes row;
            page.crc_valid <- false;
            Buffer_pool.write t.pool meter (block t rid.page);
            true
      end

type cursor = {
  heap : t;
  meter : Cost.t;
  mutable page_no : int;
  mutable slot : int;  (* next slot to look at *)
  mutable loaded : page option;
}

let scan t meter = { heap = t; meter; page_no = -1; slot = 0; loaded = None }

(* One array of its own, so no stored row (each an [Array.copy]) is
   ever physically equal to it; [[||]] is a shared atom and would be. *)
let end_of_scan : Row.t = [| Value.Null |]

let rec next_row c =
  match c.loaded with
  | None ->
      let page_no = c.page_no + 1 in
      if page_no >= page_count c.heap then end_of_scan
      else begin
        (* Load before advancing the cursor: a faulted read leaves the
           cursor unchanged, so calling [next_row] again retries this
           page instead of silently skipping it. *)
        let loaded = get_page c.heap c.meter page_no in
        c.page_no <- page_no;
        c.slot <- 0;
        c.loaded <- loaded;
        next_row c
      end
  | Some page ->
      let slot = c.slot in
      if slot >= page.used then begin
        c.loaded <- None;
        next_row c
      end
      else begin
        c.slot <- slot + 1;
        match Array.unsafe_get page.slots slot with
        | None -> next_row c
        | Some row ->
            Cost.charge_cpu c.meter 1;
            row
      end

let rid c = { Rid.page = c.page_no; slot = c.slot - 1 }

let next c =
  let row = next_row c in
  if row == end_of_scan then None else Some (rid c, row)

(* The corrupt-page exit (REPAIR TABLE): probe every page cold and
   rewrite the ones whose checksum verification fails — restamp the
   crc from the live slots and charge the page write.  Eviction first
   guarantees each probe is a genuine miss, so lazy verification
   actually runs.  Only [Corrupt] faults are healed; transient and
   persistent faults propagate (a rewrite cannot fix a dead disk). *)
let rewrite_corrupt_pages t meter =
  Buffer_pool.evict_file t.pool t.file;
  let healed = ref 0 in
  for page_no = 0 to page_count t - 1 do
    match get_page t meter page_no with
    | _ -> ()
    | exception Fault.Injected { Fault.kind = Fault.Corrupt; _ } ->
        let page = Dynarray.get t.pages page_no in
        page.crc <- page_crc page;
        page.crc_valid <- true;
        Buffer_pool.write t.pool meter (block t page_no);
        incr healed
  done;
  !healed

let iter t meter f =
  let c = scan t meter in
  let rec loop () =
    let row = next_row c in
    if row != end_of_scan then begin
      f (rid c) row;
      loop ()
    end
  in
  loop ()
