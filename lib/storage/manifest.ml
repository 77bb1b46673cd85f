type rebuild_state = Building | Committed | Aborted

type rebuild = {
  rb_id : int;
  rb_table : string;
  rb_index : string;
  rb_side_file : int;
  mutable rb_state : rebuild_state;
}

type t = {
  mutable epoch : int;
  indexes : (string * string, int) Hashtbl.t;
  verdicts : (string * string, int) Hashtbl.t;  (* escalation count *)
  mutable rebuilds : rebuild list;  (* reversed registration order *)
  mutable next_rebuild : int;
}

let create () =
  {
    epoch = 0;
    indexes = Hashtbl.create 8;
    verdicts = Hashtbl.create 8;
    rebuilds = [];
    next_rebuild = 0;
  }

let begin_epoch t =
  t.epoch <- t.epoch + 1;
  t.epoch

let commit_index t ~table ~index ~file = Hashtbl.replace t.indexes (table, index) file

let begin_rebuild t ~table ~index ~side_file =
  let id = t.next_rebuild in
  t.next_rebuild <- id + 1;
  t.rebuilds <-
    { rb_id = id; rb_table = table; rb_index = index; rb_side_file = side_file;
      rb_state = Building }
    :: t.rebuilds;
  id

let find_rebuild t id =
  match List.find_opt (fun rb -> rb.rb_id = id) t.rebuilds with
  | Some rb -> rb
  | None -> invalid_arg (Printf.sprintf "Manifest: unknown rebuild %d" id)

let commit_rebuild t id = (find_rebuild t id).rb_state <- Committed
let abort_rebuild t id = (find_rebuild t id).rb_state <- Aborted

let rebuilds t = List.rev t.rebuilds
let orphans t = List.filter (fun rb -> rb.rb_state = Building) (rebuilds t)

let record_quarantine t ~table ~structure ~escalations =
  Hashtbl.replace t.verdicts (table, structure) escalations

let clear_quarantine t ~table ~structure = Hashtbl.remove t.verdicts (table, structure)

let quarantines t =
  Hashtbl.fold (fun (tbl, st) esc acc -> (tbl, st, esc) :: acc) t.verdicts []
  |> List.sort compare

let state_name = function
  | Building -> "building"
  | Committed -> "committed"
  | Aborted -> "aborted"

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "manifest (epoch %d)\n" t.epoch);
  let committed =
    Hashtbl.fold (fun (tbl, idx) file acc -> (tbl, idx, file) :: acc) t.indexes []
    |> List.sort compare
  in
  List.iter
    (fun (tbl, idx, file) ->
      Buffer.add_string buf (Printf.sprintf "  index %s.%s -> file %d\n" tbl idx file))
    committed;
  List.iter
    (fun rb ->
      Buffer.add_string buf
        (Printf.sprintf "  rebuild #%d %s.%s side file %d: %s\n" rb.rb_id rb.rb_table
           rb.rb_index rb.rb_side_file (state_name rb.rb_state)))
    (rebuilds t);
  List.iter
    (fun (tbl, st, esc) ->
      Buffer.add_string buf
        (Printf.sprintf "  quarantined %s.%s (escalations %d)\n" tbl st esc))
    (quarantines t);
  Buffer.contents buf
