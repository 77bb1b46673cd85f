type t = { page : int; slot : int }

let make ~page ~slot = { page; slot }

let compare a b =
  let c = Int.compare a.page b.page in
  if c <> 0 then c else Int.compare a.slot b.slot

let equal a b = compare a b = 0

let hash { page; slot } =
  (* splitmix-style finalizer over the packed pair. *)
  let z = (page * 0x100000) lxor slot in
  let z = (z lxor (z lsr 30)) * 0x5851F42D in
  let z = (z lxor (z lsr 27)) * 0x14057B7E in
  (z lxor (z lsr 31)) land max_int

let to_string { page; slot } = Printf.sprintf "%d:%d" page slot

let to_int { page; slot } ~slots_per_page = (page * slots_per_page) + slot

let of_int i ~slots_per_page =
  { page = i / slots_per_page; slot = i mod slots_per_page }
