type t = Value.t array

let get (r : t) i = r.(i)

let size_bytes r = Array.fold_left (fun acc v -> acc + Value.size_bytes v) 2 r

let encode r =
  let buf = Buffer.create (size_bytes r) in
  Buffer.add_uint16_le buf (Array.length r);
  Array.iter
    (fun v ->
      match (v : Value.t) with
      | Null -> Buffer.add_char buf '\000'
      | Int i ->
          Buffer.add_char buf '\001';
          Buffer.add_int64_le buf (Int64.of_int i)
      | Float f ->
          Buffer.add_char buf '\002';
          Buffer.add_int64_le buf (Int64.bits_of_float f)
      | Str s ->
          Buffer.add_char buf '\003';
          Buffer.add_int32_le buf (Int32.of_int (String.length s));
          Buffer.add_string buf s)
    r;
  Buffer.to_bytes buf

(* --- reading the encoding in place ------------------------------------
   A field is a tag byte followed by its payload: nothing (NULL), 8
   bytes (Int, Float), or a 4-byte length and the string bytes.  Every
   reader validates what it reads, so truncated or bad-tag input raises
   [Failure] whichever entry point meets it first. *)

let truncated () = failwith "Row.decode: truncated"
let bad_tag () = failwith "Row.decode: bad tag"

let need bytes off n = if n < 0 || off + n > Bytes.length bytes then truncated ()

let str_len bytes off =
  need bytes (off + 1) 4;
  let len = Int32.to_int (Bytes.get_int32_le bytes (off + 1)) in
  need bytes (off + 5) len;
  len

(* Offset just past the field whose tag is at [off]. *)
let skip_field bytes off =
  need bytes off 1;
  match Bytes.unsafe_get bytes off with
  | '\000' -> off + 1
  | '\001' | '\002' ->
      need bytes (off + 1) 8;
      off + 9
  | '\003' -> off + 5 + str_len bytes off
  | _ -> bad_tag ()

let arity bytes =
  need bytes 0 2;
  Bytes.get_uint16_le bytes 0

let rec skip_fields bytes off k =
  if k = 0 then off else skip_fields bytes (skip_field bytes off) (k - 1)

let field_offset bytes i =
  if i < 0 || i >= arity bytes then invalid_arg "Row.field_offset: no such field";
  let off = skip_fields bytes 2 i in
  need bytes off 1;
  off

let field_is_null bytes off =
  ignore (skip_field bytes off : int);
  Bytes.unsafe_get bytes off = '\000'

let field_value bytes off =
  need bytes off 1;
  match Bytes.unsafe_get bytes off with
  | '\000' -> Value.Null
  | '\001' ->
      need bytes (off + 1) 8;
      Value.Int (Int64.to_int (Bytes.get_int64_le bytes (off + 1)))
  | '\002' ->
      need bytes (off + 1) 8;
      Value.Float (Int64.float_of_bits (Bytes.get_int64_le bytes (off + 1)))
  | '\003' ->
      let len = str_len bytes off in
      Value.Str (Bytes.sub_string bytes (off + 5) len)
  | _ -> bad_tag ()

(* [String.compare] on the [len] bytes at [off] against [s], without
   copying them out. *)
let rec compare_bytes bytes off len s i =
  if i >= len || i >= String.length s then Int.compare len (String.length s)
  else begin
    let c = Char.compare (Bytes.unsafe_get bytes (off + i)) (String.unsafe_get s i) in
    if c < 0 then -1 else if c > 0 then 1 else compare_bytes bytes off len s (i + 1)
  end

let compare_field bytes off (v : Value.t) =
  need bytes off 1;
  match (Bytes.unsafe_get bytes off, v) with
  | '\000', Null -> 0
  | '\000', (Int _ | Float _ | Str _) -> -1
  | ('\001' | '\002' | '\003'), Null ->
      ignore (skip_field bytes off : int);
      1
  | '\001', Int y ->
      need bytes (off + 1) 8;
      Int.compare (Int64.to_int (Bytes.get_int64_le bytes (off + 1))) y
  | '\001', Float y ->
      need bytes (off + 1) 8;
      Float.compare (float_of_int (Int64.to_int (Bytes.get_int64_le bytes (off + 1)))) y
  | '\002', Float y ->
      need bytes (off + 1) 8;
      Float.compare (Int64.float_of_bits (Bytes.get_int64_le bytes (off + 1))) y
  | '\002', Int y ->
      need bytes (off + 1) 8;
      Float.compare
        (Int64.float_of_bits (Bytes.get_int64_le bytes (off + 1)))
        (float_of_int y)
  | ('\001' | '\002'), Str _ ->
      need bytes (off + 1) 8;
      -1
  | '\003', Str s ->
      let len = str_len bytes off in
      compare_bytes bytes (off + 5) len s 0
  | '\003', (Int _ | Float _) ->
      ignore (str_len bytes off);
      1
  | _ -> bad_tag ()

let rec decode_fields bytes row i off =
  if i < Array.length row then begin
    need bytes off 1;
    match Bytes.unsafe_get bytes off with
    | '\000' -> decode_fields bytes row (i + 1) (off + 1)
    | '\001' ->
        need bytes (off + 1) 8;
        Array.unsafe_set row i
          (Value.Int (Int64.to_int (Bytes.get_int64_le bytes (off + 1))));
        decode_fields bytes row (i + 1) (off + 9)
    | '\002' ->
        need bytes (off + 1) 8;
        Array.unsafe_set row i
          (Value.Float (Int64.float_of_bits (Bytes.get_int64_le bytes (off + 1))));
        decode_fields bytes row (i + 1) (off + 9)
    | '\003' ->
        let len = str_len bytes off in
        Array.unsafe_set row i (Value.Str (Bytes.sub_string bytes (off + 5) len));
        decode_fields bytes row (i + 1) (off + 5 + len)
    | _ -> bad_tag ()
  end

(* The array starts all-NULL, so a NULL field costs no store. *)
let decode bytes =
  let row = Array.make (arity bytes) Value.Null in
  decode_fields bytes row 0 2;
  row

let project r cols = Array.map (fun i -> r.(i)) cols

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare_at cols a b =
  let rec loop i =
    if i >= Array.length cols then 0
    else begin
      let c = Value.compare a.(cols.(i)) b.(cols.(i)) in
      if c <> 0 then c else loop (i + 1)
    end
  in
  loop 0

let to_string r =
  "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_string r)) ^ ")"
