let apply_write image (w : Persist_graph.write) =
  if w.addr + w.size <= Bytes.length image then
    match w.size with
    | 8 -> Bytes.set_int64_le image w.addr w.value
    | 4 -> Bytes.set_int32_le image w.addr (Int64.to_int32 w.value)
    | 2 -> Bytes.set_uint16_le image w.addr (Int64.to_int w.value land 0xffff)
    | 1 -> Bytes.set_uint8 image w.addr (Int64.to_int w.value land 0xff)
    | _ -> invalid_arg "Observer: bad write size"

let image_of_mask g mask ~capacity =
  if not (Dag.is_down_closed_mask (Persist_graph.dag g) mask) then
    invalid_arg "Observer.image_of_cut: cut is not down-closed";
  let image = Bytes.make capacity '\000' in
  (* Node ids increase in SC store order, so id order gives
     last-writer-wins semantics consistent with strong persist
     atomicity. *)
  let apply = apply_write image in
  for id = 0 to Bytes.length mask - 1 do
    if Bytes.get mask id <> '\000' then
      Memsim.Vec.iter apply (Persist_graph.get g id).writes
  done;
  image

let image_of_cut g cut ~capacity =
  let mask = Bytes.create (Persist_graph.node_count g) in
  Dag.fill_mask (Persist_graph.dag g) cut mask;
  image_of_mask g mask ~capacity

let final_image g ~capacity =
  let image = Bytes.make capacity '\000' in
  Persist_graph.iter
    (fun n -> Memsim.Vec.iter (apply_write image) n.Persist_graph.writes)
    g;
  image
