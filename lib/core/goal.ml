type t = Fast_first | Total_time

type controlling_node = Exists | Limit of int | Sort | Aggregate | Cursor

let of_controlling_node = function
  | Exists | Limit _ -> Some Fast_first
  | Sort | Aggregate -> Some Total_time
  | Cursor -> None

let node_name = function
  | Exists -> "EXISTS"
  | Limit n -> Printf.sprintf "LIMIT TO %d ROWS" n
  | Sort -> "SORT"
  | Aggregate -> "aggregate"
  | Cursor -> "cursor"

let to_string = function Fast_first -> "fast-first" | Total_time -> "total-time"

let resolve ?explicit ?context ~default () =
  match context with
  | Some node -> (
      match of_controlling_node node with
      | Some goal -> (goal, "inferred from controlling " ^ node_name node)
      | None -> (
          match explicit with
          | Some g -> (g, "user request")
          | None -> (default, "default")))
  | None -> (
      match explicit with
      | Some g -> (g, "user request")
      | None -> (default, "default"))
