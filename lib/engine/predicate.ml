open Rdb_data

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type operand = Const of Value.t | Param of string

type t =
  | True
  | False
  | Cmp of string * comparison * operand
  | Cmp_col of string * comparison * string
  | Between of string * operand * operand
  | In_list of string * operand list
  | Is_null of string
  | Is_not_null of string
  | Like of string * string
  | And of t list
  | Or of t list
  | Not of t

type env = (string * Value.t) list

exception Unbound_param of string

let bind_operand env = function
  | Const _ as c -> c
  | Param name -> (
      match List.assoc_opt name env with
      | Some v -> Const v
      | None -> raise (Unbound_param name))

let rec bind t env =
  match t with
  | True | False | Is_null _ | Is_not_null _ | Like _ | Cmp_col _ -> t
  | Cmp (c, op, o) -> Cmp (c, op, bind_operand env o)
  | Between (c, a, b) -> Between (c, bind_operand env a, bind_operand env b)
  | In_list (c, os) -> In_list (c, List.map (bind_operand env) os)
  | And ts -> And (List.map (fun x -> bind x env) ts)
  | Or ts -> Or (List.map (fun x -> bind x env) ts)
  | Not x -> Not (bind x env)

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let params t =
  let rec go acc = function
    | True | False | Is_null _ | Is_not_null _ | Like _ | Cmp_col _ -> acc
    | Cmp (_, _, Param p) -> p :: acc
    | Cmp (_, _, Const _) -> acc
    | Between (_, a, b) ->
        let acc = match a with Param p -> p :: acc | Const _ -> acc in
        (match b with Param p -> p :: acc | Const _ -> acc)
    | In_list (_, os) ->
        List.fold_left (fun acc -> function Param p -> p :: acc | Const _ -> acc) acc os
    | And ts | Or ts -> List.fold_left go acc ts
    | Not x -> go acc x
  in
  dedup (List.rev (go [] t))

let columns t =
  let rec go acc = function
    | True | False -> acc
    | Cmp (c, _, _) | Between (c, _, _) | In_list (c, _) | Is_null c | Is_not_null c
    | Like (c, _) ->
        c :: acc
    | Cmp_col (a, _, b) -> b :: a :: acc
    | And ts | Or ts -> List.fold_left go acc ts
    | Not x -> go acc x
  in
  dedup (List.rev (go [] t))

let is_bound t = params t = []

(* --- three-valued logic -------------------------------------------- *)

type tri = T | F | U

let tri_not = function T -> F | F -> T | U -> U

let tri_and a b =
  match (a, b) with F, _ | _, F -> F | T, T -> T | _ -> U

let tri_or a b =
  match (a, b) with T, _ | _, T -> T | F, F -> F | _ -> U

let const_of = function
  | Const v -> v
  | Param p -> raise (Unbound_param p)

let[@inline] holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let cmp_tri op (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> U
  | _ -> if holds op (Value.compare a b) then T else F

(* SQL LIKE with % (any run) and _ (any single char). *)
let like_match pattern s =
  let np = String.length pattern and ns = String.length s in
  (* memoized recursion over (pi, si) *)
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
        let r =
          if pi >= np then si >= ns
          else begin
            match pattern.[pi] with
            | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
            | '_' -> si < ns && go (pi + 1) (si + 1)
            | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
          end
        in
        Hashtbl.add memo (pi, si) r;
        r
  in
  go 0 0

let like_tri pattern = function
  | Value.Null -> U
  | Value.Str s -> if like_match pattern s then T else F
  | v -> if like_match pattern (Value.to_string v) then T else F

let rec eval_tri t schema row =
  match t with
  | True -> T
  | False -> F
  | Cmp (col, op, o) ->
      cmp_tri op (Row.get row (Schema.index_of schema col)) (const_of o)
  | Cmp_col (a, op, b) ->
      cmp_tri op
        (Row.get row (Schema.index_of schema a))
        (Row.get row (Schema.index_of schema b))
  | Between (col, lo, hi) ->
      let v = Row.get row (Schema.index_of schema col) in
      tri_and (cmp_tri Ge v (const_of lo)) (cmp_tri Le v (const_of hi))
  | In_list (col, os) ->
      let v = Row.get row (Schema.index_of schema col) in
      List.fold_left (fun acc o -> tri_or acc (cmp_tri Eq v (const_of o))) F os
  | Is_null col -> if Value.is_null (Row.get row (Schema.index_of schema col)) then T else F
  | Is_not_null col ->
      if Value.is_null (Row.get row (Schema.index_of schema col)) then F else T
  | Like (col, pattern) -> like_tri pattern (Row.get row (Schema.index_of schema col))
  | And ts -> List.fold_left (fun acc x -> tri_and acc (eval_tri x schema row)) T ts
  | Or ts -> List.fold_left (fun acc x -> tri_or acc (eval_tri x schema row)) F ts
  | Not x -> tri_not (eval_tri x schema row)

let eval t schema row = eval_tri t schema row = T

let eval_maybe t schema row = eval_tri t schema row <> F

(* --- compiled restrictions ---------------------------------------------
   [compile] resolves every column to its position and every operand to
   its constant once, and builds one closure per node of the
   restriction: a leaf reads its field and compares it, [And], [Or] and
   [Not] combine the closures of their operands.  A field read is
   bounds-checked: a position outside the array reads as NULL.  Only a
   key-compiled restriction holds one (-1, a column outside the key),
   and NULL is what [Scan.synthetic_row] puts there; a row-compiled
   one's positions are all inside the row. *)

type compiled = Value.t array -> tri
type compiled_key = Value.t array -> tri

let[@inline] field (src : Value.t array) pos =
  if pos < 0 || pos >= Array.length src then Value.Null else Array.unsafe_get src pos

(* The folds of [eval_tri], stopping once the result is settled: a leaf
   has no effect besides its value, so skipping the rest changes
   nothing. *)
let rec and_from fs src i acc =
  if i >= Array.length fs || acc = F then acc
  else and_from fs src (i + 1) (tri_and acc (Array.unsafe_get fs i src))

let rec or_from fs src i acc =
  if i >= Array.length fs || acc = T then acc
  else or_from fs src (i + 1) (tri_or acc (Array.unsafe_get fs i src))

let rec in_from v vs i acc =
  if i >= Array.length vs || acc = T then acc
  else in_from v vs (i + 1) (tri_or acc (cmp_tri Eq v (Array.unsafe_get vs i)))

let compile_with resolve t =
  let rec go = function
    | True -> fun _ -> T
    | False -> fun _ -> F
    | Cmp (c, op, o) -> (
        let pos = resolve c in
        match const_of o with
        | Value.Null -> fun _ -> U
        | Value.Int k as kv -> (
            (* An Int field against an Int constant compares as ints,
               as [Value.compare] would; any other value takes the
               general [cmp_tri]. *)
            fun src ->
              match field src pos with
              | Value.Int x -> if holds op (compare (x : int) k) then T else F
              | v -> cmp_tri op v kv)
        | v -> fun src -> cmp_tri op (field src pos) v)
    | Cmp_col (a, op, b) ->
        let pa = resolve a in
        let pb = resolve b in
        fun src -> cmp_tri op (field src pa) (field src pb)
    | Between (c, lo, hi) ->
        let pos = resolve c in
        let lo = const_of lo in
        let hi = const_of hi in
        fun src ->
          let v = field src pos in
          tri_and (cmp_tri Ge v lo) (cmp_tri Le v hi)
    | In_list (c, os) ->
        let pos = resolve c in
        let vs = Array.of_list (List.map const_of os) in
        fun src -> in_from (field src pos) vs 0 F
    | Is_null c ->
        let pos = resolve c in
        fun src -> (match field src pos with Value.Null -> T | _ -> F)
    | Is_not_null c ->
        let pos = resolve c in
        fun src -> (match field src pos with Value.Null -> F | _ -> T)
    | Like (c, p) ->
        let pos = resolve c in
        fun src -> like_tri p (field src pos)
    | And ts ->
        let fs = Array.of_list (List.map go ts) in
        fun src -> and_from fs src 0 T
    | Or ts ->
        let fs = Array.of_list (List.map go ts) in
        fun src -> or_from fs src 0 F
    | Not x ->
        let f = go x in
        fun src -> tri_not (f src)
  in
  go t

let position schema c =
  match Schema.find schema c with
  | Some i -> i
  | None -> invalid_arg ("Predicate.compile: unknown column " ^ c)

let compile t schema = compile_with (position schema) t

(* A column outside the key resolves to -1, which reads as NULL. *)
let compile_key t schema ~key_ids =
  compile_with
    (fun c ->
      let col = position schema c in
      let at = ref (-1) in
      Array.iteri (fun pos id -> if id = col then at := pos) key_ids;
      !at)
    t

let test (c : compiled) row = c row = T
let test_maybe (c : compiled) row = c row <> F
let test_key (c : compiled_key) key = c key = T
let test_key_maybe (c : compiled_key) key = c key <> F

let rec simplify t =
  match t with
  | True | False | Cmp _ | Cmp_col _ | Between _ | In_list _ | Is_null _ | Is_not_null _
  | Like _ ->
      t
  | Not x -> (
      match simplify x with
      | True -> False
      | False -> True
      | Not y -> y
      | y -> Not y)
  | And ts ->
      let ts =
        List.concat_map
          (fun x -> match simplify x with And ys -> ys | True -> [] | y -> [ y ])
          ts
      in
      if List.mem False ts then False
      else begin
        match ts with [] -> True | [ x ] -> x | _ -> And ts
      end
  | Or ts ->
      let ts =
        List.concat_map
          (fun x -> match simplify x with Or ys -> ys | False -> [] | y -> [ y ])
          ts
      in
      if List.mem True ts then True
      else begin
        match ts with [] -> False | [ x ] -> x | _ -> Or ts
      end

let comparison_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let operand_to_string = function
  | Const v -> Value.to_string v
  | Param p -> ":" ^ p

let rec to_string = function
  | True -> "TRUE"
  | False -> "FALSE"
  | Cmp (c, op, o) ->
      Printf.sprintf "%s %s %s" c (comparison_to_string op) (operand_to_string o)
  | Cmp_col (a, op, b) -> Printf.sprintf "%s %s %s" a (comparison_to_string op) b
  | Between (c, a, b) ->
      Printf.sprintf "%s BETWEEN %s AND %s" c (operand_to_string a) (operand_to_string b)
  | In_list (c, os) ->
      Printf.sprintf "%s IN (%s)" c (String.concat ", " (List.map operand_to_string os))
  | Is_null c -> c ^ " IS NULL"
  | Is_not_null c -> c ^ " IS NOT NULL"
  | Like (c, p) -> Printf.sprintf "%s LIKE '%s'" c p
  | And ts -> "(" ^ String.concat " AND " (List.map to_string ts) ^ ")"
  | Or ts -> "(" ^ String.concat " OR " (List.map to_string ts) ^ ")"
  | Not x -> "NOT " ^ to_string x

let pp fmt t = Format.pp_print_string fmt (to_string t)

let ( =% ) c v = Cmp (c, Eq, Const v)
let ( <% ) c v = Cmp (c, Lt, Const v)
let ( <=% ) c v = Cmp (c, Le, Const v)
let ( >% ) c v = Cmp (c, Gt, Const v)
let ( >=% ) c v = Cmp (c, Ge, Const v)
let between c lo hi = Between (c, Const lo, Const hi)
let param_cmp c op p = Cmp (c, op, Param p)
