type column = { name : string; ty : Value.ty; nullable : bool }

type t = { cols : column array; by_name : (string, int) Hashtbl.t }

let make cols =
  let arr = Array.of_list cols in
  let by_name = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i c ->
      if c.name = "" then invalid_arg "Schema.make: empty column name";
      if Hashtbl.mem by_name c.name then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.add by_name c.name i)
    arr;
  { cols = arr; by_name }

let columns t = Array.to_list t.cols
let arity t = Array.length t.cols

let index_of t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> i
  | None -> raise Not_found

let find t name = Hashtbl.find_opt t.by_name name
let mem t name = Hashtbl.mem t.by_name name

let ty_to_string = function
  | Value.T_int -> "INT"
  | Value.T_float -> "FLOAT"
  | Value.T_str -> "STRING"

let validate_row t row =
  if Array.length row <> arity t then
    Error
      (Printf.sprintf "arity mismatch: schema has %d columns, row has %d" (arity t)
         (Array.length row))
  else begin
    let err = ref None in
    Array.iteri
      (fun i v ->
        if !err = None then begin
          let c = t.cols.(i) in
          match Value.type_of v with
          | None -> if not c.nullable then err := Some (c.name ^ " is not nullable")
          | Some ty ->
              (* Ints are acceptable in float columns. *)
              let ok = ty = c.ty || (c.ty = Value.T_float && ty = Value.T_int) in
              if not ok then
                err :=
                  Some
                    (Printf.sprintf "%s expects %s, got %s" c.name (ty_to_string c.ty)
                       (ty_to_string ty))
        end)
      row;
    match !err with None -> Ok () | Some e -> Error e
  end

let col ?(nullable = false) name ty = { name; ty; nullable }
