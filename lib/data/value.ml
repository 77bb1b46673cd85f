type t = Null | Int of int | Float of float | Str of string

type ty = T_int | T_float | T_str

let type_of = function
  | Null -> None
  | Int _ -> Some T_int
  | Float _ -> Some T_float
  | Str _ -> Some T_str

let rank = function Null -> 0 | Int _ | Float _ -> 1 | Str _ -> 2

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let is_null = function Null -> true | _ -> false

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let int i = Int i
let float f = Float f
let str s = Str s

let as_int = function Int i -> Some i | _ -> None

let as_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let succ_approx = function
  | Null -> Null
  | Int i -> if i = max_int then Int i else Int (i + 1)
  | Float f -> Float (Float.succ f)
  | Str s -> Str (s ^ "\000")
