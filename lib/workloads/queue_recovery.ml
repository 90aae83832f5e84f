type recovered = {
  head : int;
  entries : (int * int) list;
}

(* Fang's SCM log: scan records while the trailing seal word matches
   the one-based position; the first mismatch ends the recovered
   queue.  Every scanned record must be fully intact — the seal is
   persisted after the payload. *)
let recover_fang ~(params : Queue.params) ~(layout : Queue.layout) image =
  let total = params.threads * params.inserts_per_thread in
  let rec scan k acc =
    if k >= total then Ok { head = k * layout.slot; entries = List.rev acc }
    else begin
      let off = layout.data_addr + (k * layout.slot) in
      let seal = Int64.to_int (Bytes.get_int64_le image (off + layout.slot - 8)) in
      if seal <> k + 1 then Ok { head = k * layout.slot; entries = List.rev acc }
      else begin
        let len = Int64.to_int (Bytes.get_int64_le image off) in
        if len <> params.entry_size then
          Error
            (Printf.sprintf "record %d sealed but length word is %d — torn record"
               k len)
        else begin
          let payload = Bytes.sub image (off + 8) params.entry_size in
          match Entry.check ~seed:params.seed ~size:params.entry_size payload with
          | Error msg -> Error (Printf.sprintf "record %d sealed but %s" k msg)
          | Ok () ->
            scan (k + 1) ((Entry.tid_of payload, Entry.seq_of payload) :: acc)
        end
      end
    end
  in
  scan 0 []

let recover ~(params : Queue.params) ~(layout : Queue.layout) image =
  let total = params.threads * params.inserts_per_thread in
  if params.capacity_entries < total then
    Error "recovery checking requires a run without buffer wrap-around"
  else if params.design = Queue.Fang then
    recover_fang ~params ~layout image
  else begin
    let head = Int64.to_int (Bytes.get_int64_le image layout.head_addr) in
    if head < 0 || head mod layout.slot <> 0 then
      Error (Printf.sprintf "recovered head %d is not slot-aligned" head)
    else if head > total * layout.slot then
      Error
        (Printf.sprintf "recovered head %d beyond all inserted data (%d)"
           head (total * layout.slot))
    else begin
      let rec walk k acc =
        if k * layout.slot >= head then Ok { head; entries = List.rev acc }
        else begin
          let off = layout.data_addr + (k * layout.slot) in
          let len = Int64.to_int (Bytes.get_int64_le image off) in
          if len <> params.entry_size then
            Error
              (Printf.sprintf "entry %d: length word %d, expected %d — hole or torn entry"
                 k len params.entry_size)
          else begin
            let payload = Bytes.sub image (off + 8) params.entry_size in
            match Entry.check ~seed:params.seed ~size:params.entry_size payload with
            | Error msg -> Error (Printf.sprintf "entry %d: %s" k msg)
            | Ok () -> walk (k + 1) ((Entry.tid_of payload, Entry.seq_of payload) :: acc)
          end
        end
      in
      walk 0 []
    end
  end

let check_fifo entries =
  (* Per thread, sequence numbers must be exactly 0, 1, 2, ... *)
  let next : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok ()
    | (tid, seq) :: rest ->
      let expected = Option.value ~default:0 (Hashtbl.find_opt next tid) in
      if seq <> expected then
        Error
          (Printf.sprintf
             "thread %d committed seq %d but %d was expected — lost or reordered insert"
             tid seq expected)
      else begin
        Hashtbl.replace next tid (expected + 1);
        go rest
      end
  in
  go entries

let check ~params ~layout image =
  match recover ~params ~layout image with
  | Error msg -> Error msg
  | Ok { entries; _ } -> check_fifo entries

let image_capacity (layout : Queue.layout) =
  max (layout.head_addr + 8) (layout.data_addr + layout.data_bytes)
