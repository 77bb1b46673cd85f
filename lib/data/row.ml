type t = Value.t array

let get (r : t) i = r.(i)

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
