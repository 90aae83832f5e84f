type t = Event.t Vec.t

let create () = Vec.create ()
let sink t ev = Vec.push t ev
let length = Vec.length
let get = Vec.get
let iter = Vec.iter
let to_list = Vec.to_list
let of_list = Vec.of_list

let persists t =
  Vec.fold_left (fun n ev -> if Event.is_persist ev then n + 1 else n) 0 t

let threads t =
  let seen = Hashtbl.create 8 in
  Vec.iter (fun ev -> Hashtbl.replace seen (Event.tid ev) ()) t;
  Hashtbl.length seen

let to_channel oc t =
  iter (fun ev -> output_string oc (Event.to_string ev ^ "\n")) t

let of_channel ic =
  let t = create () in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 then Vec.push t (Event.of_string line)
     done
   with End_of_file -> ());
  t
