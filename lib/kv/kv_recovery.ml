type recovered = {
  bindings : (int * int64) list;
  sealed : int;
  rolled_back : int;
}

(* A sealed undo record, paired with the (key, value) its writer went
   on to store — re-derived from the deterministic put schedule. *)
type record = {
  old_key : int64;
  old_value : int64;
  put_value : int64;
}

let get64 = Bytes.get_int64_le

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* Thread [tid]'s puts in log order: position i of thread tid's log
   region was written by puts.(tid).(i). *)
let put_schedule (params : Kv.params) =
  Array.init params.threads (fun tid ->
      let acc = ref [] in
      for seq = params.ops_per_thread - 1 downto 0 do
        match Kv.op_of params ~tid ~seq with
        | Kv.Put { key; value } -> acc := (key, value) :: !acc
        | Kv.Get _ -> ()
      done;
      Array.of_list !acc)

(* Scan the logs.  Every record position is judged independently: the
   seal word is 0 (record ignored) or the one-based position (record
   sealed, fields must be intact).  Strand runs legitimately seal out
   of order, so unlike the queue checker we never stop at a hole. *)
let scan_logs ~(params : Kv.params) ~(layout : Kv.layout) ~puts ~kgroups
    ~written image =
  let slots = layout.groups * layout.group_size in
  let by_slot = Array.make slots [] in
  let sealed = ref 0 in
  for tid = 0 to params.threads - 1 do
    for pos = 0 to Array.length puts.(tid) - 1 do
      let off =
        layout.log_addr + (((tid * layout.log_capacity) + pos) * Kv.rec_bytes)
      in
      let seal = Int64.to_int (get64 image (off + 32)) in
      if seal <> 0 then begin
        if seal <> pos + 1 then
          bad "log record %d.%d: seal word %d, expected %d or 0 — torn seal"
            tid pos seal (pos + 1);
        let slot = Int64.to_int (get64 image off) in
        let old_key = get64 image (off + 8) in
        let old_value = get64 image (off + 16) in
        let old_sum = get64 image (off + 24) in
        let put_key, put_value = puts.(tid).(pos) in
        if slot < 0 || slot >= slots then
          bad "log record %d.%d: sealed but slot index %d out of range — \
               torn record"
            tid pos slot;
        if slot / layout.group_size <> kgroups.(put_key - 1) then
          bad "log record %d.%d: sealed but slot %d is outside key %d's \
               group %d"
            tid pos slot put_key
            kgroups.(put_key - 1);
        if Int64.equal old_key 0L then begin
          if not (Int64.equal old_value 0L && Int64.equal old_sum 0L) then
            bad "log record %d.%d: sealed first-claim record with non-zero \
                 old value/sum — torn record"
              tid pos
        end
        else begin
          if Int64.to_int old_key <> put_key then
            bad "log record %d.%d: saved key %Ld but the put wrote key %d"
              tid pos old_key put_key;
          if not (Int64.equal old_sum (Kv.slot_sum ~key:old_key ~value:old_value))
          then
            bad "log record %d.%d: sealed but saved triple fails its \
                 checksum — torn record"
              tid pos;
          if not (Hashtbl.mem written (put_key, old_value)) then
            bad "log record %d.%d: saved value %Ld was never written to key \
                 %d"
              tid pos old_value put_key
        end;
        incr sealed;
        by_slot.(slot) <- { old_key; old_value; put_value } :: by_slot.(slot)
      end
    done
  done;
  (by_slot, !sealed)

(* The slot's undo chain links records by value: record r supersedes
   record r' when r.old_value is what r''s writer stored.  The record
   to apply is the chain's last sealed one — the unique sealed record
   whose own stored value no sealed record saves as "old". *)
let rollback_record recs =
  match
    List.filter
      (fun r ->
        not (List.exists (fun r' -> Int64.equal r'.old_value r.put_value) recs))
      recs
  with
  | [] -> None
  | [ r ] -> Some r
  | _ :: _ :: _ -> bad "ambiguous undo chain — two unsuperseded sealed records"

(* The put schedule, key groups and written pairs are functions of the
   parameters alone: built once, before the image is supplied. *)
let recover ~(params : Kv.params) ~(layout : Kv.layout) =
  let puts = put_schedule params in
  let kgroups = Kv.key_groups params in
  let written = Hashtbl.create 64 in
  List.iter (fun kv -> Hashtbl.replace written kv ()) (Kv.written params);
  fun image ->
  try
    let by_slot, sealed =
      scan_logs ~params ~layout ~puts ~kgroups ~written image
    in
    let bindings = ref [] in
    let rolled_back = ref 0 in
    for s = 0 to (layout.groups * layout.group_size) - 1 do
      let off = layout.table_addr + (s * Kv.slot_bytes) in
      let k = get64 image off in
      let v = get64 image (off + 8) in
      let sum = get64 image (off + 16) in
      let ki = Int64.to_int k in
      let valid =
        ki >= 1 && ki <= params.key_space
        && Int64.equal sum (Kv.slot_sum ~key:k ~value:v)
        && Hashtbl.mem written (ki, v)
        && kgroups.(ki - 1) = s / layout.group_size
      in
      if valid then bindings := (ki, v) :: !bindings
      else if Int64.equal k 0L && Int64.equal v 0L && Int64.equal sum 0L then ()
      else begin
        match rollback_record by_slot.(s) with
        | None ->
          bad "torn slot %d (key=%Ld value=%Ld sum=%Ld) with no sealed undo \
               record"
            s k v sum
        | Some r ->
          incr rolled_back;
          if not (Int64.equal r.old_key 0L) then
            bindings := (Int64.to_int r.old_key, r.old_value) :: !bindings
      end
    done;
    let sorted = List.sort compare !bindings in
    let rec first_dup = function
      | (k1, _) :: ((k2, _) :: _ as rest) ->
        if k1 = k2 then Some k1 else first_dup rest
      | _ -> None
    in
    (match first_dup sorted with
    | Some k -> bad "key %d recovered in two slots" k
    | None -> ());
    Ok { bindings = sorted; sealed; rolled_back = !rolled_back }
  with Bad msg -> Error msg

let checker ~params ~layout =
  let recover = recover ~params ~layout in
  fun image ->
    match recover image with
    | Ok _ -> Ok ()
    | Error msg -> Error msg

let image_capacity (layout : Kv.layout) =
  max
    (layout.table_addr + layout.table_bytes)
    (layout.log_addr + layout.log_bytes)

let verify ~params ~layout ~graph ~strategy =
  Recovery.check ~graph
    ~capacity:(image_capacity layout)
    ~strategy
    (checker ~params ~layout)

(* ------------------------------------------------------------------ *)
(* Group commit (Kv_group)

   The commit marker makes group recovery simpler and stricter than the
   per-op path: the marker value B promises batches 0..B-1 are fully
   durable, so recovery must reproduce {e exactly} the table state after
   batch B-1 — "lands on a batch boundary" is an equality check, not
   just an invariant.  Records of uncommitted batches are applied in
   reverse global order, and only when the slot is torn or still holds
   that record's new write: a batch's records all share one epoch, so a
   later record can be durable while an earlier one is missing, and the
   value condition keeps such holes from corrupting the rollback. *)

type group_recovered = {
  g_bindings : (int * int64) list;
  g_committed : int;
  g_rolled_back : int;
}

type grec = {
  batch : int;
  pos : int;
  put : Kv_group.put;
  r_slot : int;
  r_old_key : int64;
  r_old_value : int64;
  r_old_sum : int64;
}

let flat_records (batches : Kv_group.put list list) =
  let acc = ref [] and pos = ref 0 in
  List.iteri
    (fun batch puts ->
      List.iter
        (fun put ->
          acc := (batch, !pos, put) :: !acc;
          incr pos)
        puts)
    batches;
  List.rev !acc

(* Intact / absent / torn, judged against the replayed put and the
   full-record checksum. *)
type grec_state = Intact of grec | Absent | Torn of string

let read_grec ~(layout : Kv_group.layout) ~group_of image (batch, pos, put) =
  let off = layout.log_addr + (pos * Kv_group.grec_bytes) in
  let w0 = get64 image off in
  let r_old_key = get64 image (off + 8) in
  let r_old_value = get64 image (off + 16) in
  let r_old_sum = get64 image (off + 24) in
  let new_value = get64 image (off + 32) in
  let rcheck = get64 image (off + 40) in
  let all_zero =
    List.for_all (Int64.equal 0L)
      [ w0; r_old_key; r_old_value; r_old_sum; new_value; rcheck ]
  in
  if all_zero then Absent
  else begin
    let slot = Int64.to_int w0 in
    let expected =
      Kv_group.rec_check ~pos ~slot_index:slot ~old_key:r_old_key
        ~old_value:r_old_value ~old_sum:r_old_sum ~new_value
    in
    if not (Int64.equal rcheck expected) then
      Torn (Printf.sprintf "record %d fails its checksum" pos)
    else if slot < 0 || slot >= layout.groups * layout.group_size then
      Torn (Printf.sprintf "record %d: slot index %d out of range" pos slot)
    else if not (Int64.equal new_value put.Kv_group.value) then
      Torn
        (Printf.sprintf "record %d: new value %Ld but batch %d put %Ld"
           pos new_value batch put.Kv_group.value)
    else if
      match Hashtbl.find_opt group_of put.Kv_group.key with
      | None -> true
      | Some g -> slot / layout.group_size <> g
    then
      Torn
        (Printf.sprintf "record %d: slot %d outside key %d's group" pos slot
           put.Kv_group.key)
    else if
      (not (Int64.equal r_old_key 0L))
      && not (Int64.equal r_old_sum
                (Kv.slot_sum ~key:r_old_key ~value:r_old_value))
    then Torn (Printf.sprintf "record %d: saved triple fails checksum" pos)
    else
      Intact
        { batch; pos; put; r_slot = slot; r_old_key; r_old_value; r_old_sum }
  end

(* As in [recover], the tables that do not depend on the image are
   built before it is supplied. *)
let recover_group ~(layout : Kv_group.layout) ~batches =
  let group_of = Hashtbl.create 64 in
  Array.iteri
    (fun i key -> Hashtbl.replace group_of key layout.kgroups.(i))
    layout.keys;
  let total = List.length batches in
  let flat = flat_records batches in
  fun image ->
  try
    let marker = Int64.to_int (get64 image layout.marker_addr) in
    if marker < 0 || marker > total then
      bad "commit marker %d outside [0, %d] — torn marker" marker total;
    let recs =
      List.map (fun r -> (r, read_grec ~layout ~group_of image r)) flat
    in
    (* a committed batch's records persisted before its slots and long
       before the marker: every one must be intact.  An uncommitted
       batch's record may legally be torn or absent — its six words
       share one epoch, so a crash cut can split them — but then the
       batch's slot writes cannot be durable either (they are barriered
       after complete records), so ignoring it is safe. *)
    List.iter
      (fun ((batch, pos, _), state) ->
        if batch < marker then
          match state with
          | Intact _ -> ()
          | Torn msg -> bad "committed batch %d: %s" batch msg
          | Absent -> bad "record %d of committed batch %d is missing" pos batch)
      recs;
    (* reverse-order, value-conditional rollback of uncommitted batches *)
    let work = Bytes.copy image in
    let rolled = ref 0 in
    List.iter
      (function
        | _, Intact r when r.batch >= marker ->
          let off = layout.table_addr + (r.r_slot * Kv.slot_bytes) in
          let k = get64 work off in
          let v = get64 work (off + 8) in
          let sum = get64 work (off + 16) in
          let empty =
            Int64.equal k 0L && Int64.equal v 0L && Int64.equal sum 0L
          in
          let valid =
            (not (Int64.equal k 0L))
            && Int64.equal sum (Kv.slot_sum ~key:k ~value:v)
          in
          let holds_this_write =
            valid
            && Int64.equal v r.put.Kv_group.value
            && Int64.to_int k = r.put.Kv_group.key
          in
          let torn = (not empty) && not valid in
          if torn || holds_this_write then begin
            Bytes.set_int64_le work off r.r_old_key;
            Bytes.set_int64_le work (off + 8) r.r_old_value;
            Bytes.set_int64_le work (off + 16) r.r_old_sum;
            incr rolled
          end
        | _, (Intact _ | Absent | Torn _) -> ())
      (List.rev recs);
    (* decode the rolled-back table *)
    let bindings = ref [] in
    for s = 0 to (layout.groups * layout.group_size) - 1 do
      let off = layout.table_addr + (s * Kv.slot_bytes) in
      let k = get64 work off in
      let v = get64 work (off + 8) in
      let sum = get64 work (off + 16) in
      if Int64.equal k 0L && Int64.equal v 0L && Int64.equal sum 0L then ()
      else begin
        let ki = Int64.to_int k in
        let placed =
          match Hashtbl.find_opt group_of ki with
          | Some g -> g = s / layout.group_size
          | None -> false
        in
        if
          (not (Int64.equal sum (Kv.slot_sum ~key:k ~value:v))) || not placed
        then
          bad "slot %d torn after rollback (key=%Ld value=%Ld sum=%Ld)" s k v
            sum;
        bindings := (ki, v) :: !bindings
      end
    done;
    let sorted = List.sort compare !bindings in
    let rec first_dup = function
      | (k1, _) :: ((k2, _) :: _ as rest) ->
        if k1 = k2 then Some k1 else first_dup rest
      | _ -> None
    in
    (match first_dup sorted with
    | Some k -> bad "key %d recovered in two slots" k
    | None -> ());
    (* the batch-boundary equality: recovered state = fold of the
       committed prefix *)
    let expected = Hashtbl.create 64 in
    List.iteri
      (fun b puts ->
        if b < marker then
          List.iter
            (fun (p : Kv_group.put) ->
              Hashtbl.replace expected p.Kv_group.key p.Kv_group.value)
            puts)
      batches;
    let expected_sorted =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) expected [])
    in
    if sorted <> expected_sorted then
      bad
        "recovered state is not the batch-%d boundary (%d bindings \
         recovered, %d expected)"
        marker (List.length sorted)
        (List.length expected_sorted);
    Ok { g_bindings = sorted; g_committed = marker; g_rolled_back = !rolled }
  with Bad msg -> Error msg

let check_group ~layout ~batches =
  let recover = recover_group ~layout ~batches in
  fun image ->
    match recover image with
    | Ok _ -> Ok ()
    | Error msg -> Error msg

let group_image_capacity (layout : Kv_group.layout) =
  max
    (max
       (layout.table_addr + layout.table_bytes)
       (layout.log_addr + layout.log_bytes))
    (layout.marker_addr + 8)
