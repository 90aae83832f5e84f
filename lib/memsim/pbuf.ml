type entry = {
  tid : int;
  kind : Event.flush_kind;
  addr : int;
  epoch : int;
  seq : int;
  mutable pos : int;  (* position in [entries]; -1 once drained *)
  mutable head : bool;
  mutable ok : bool;
  mutable line_next : entry;  (* the next pending entry of its line *)
  mutable tid_next : entry;  (* its thread's next entry (see [lane]) *)
}

let rec nil =
  { tid = -1; kind = Event.Clwb; addr = -1; epoch = -1; seq = -1; pos = -1;
    head = false; ok = false; line_next = nil; tid_next = nil }

(* A thread's pending entries, in enqueue order, have non-decreasing
   epochs.  Those of the smallest epoch, [front_epoch], are its
   [front_live] front entries, the only ones that can be eligible and
   so the only ones that ever drain.  [waiting] starts the rest, linked
   through [tid_next] up to [tail]: when the last front entry drains,
   the run of [waiting] entries sharing its epoch becomes the front,
   and its line heads become eligible. *)
type lane = {
  mutable front_epoch : int;
  mutable front_live : int;
  mutable waiting : entry;
  mutable tail : entry;
}

type t = {
  entries : entry Vec.t;
  tails : (int, entry) Hashtbl.t;  (* line -> its newest pending entry *)
  mutable lanes : lane array;  (* by tid *)
  mutable by_seq : entry array;
      (* [by_seq.(first) .. by_seq.(last - 1)]: entries in enqueue
         order, the first one pending (drained ones behind it are
         skipped at each drain) *)
  mutable first : int;
  mutable last : int;
  mutable stamp : int;
  mutable ok_count : int;
}

let create () =
  { entries = Vec.create ();
    tails = Hashtbl.create 16;
    lanes = [||];
    by_seq = [||];
    first = 0;
    last = 0;
    stamp = 0;
    ok_count = 0 }

let length t = Vec.length t.entries
let is_empty t = Vec.is_empty t.entries
let get t i = Vec.get t.entries i
let eligible t i = (Vec.get t.entries i).ok
let eligible_count t = t.ok_count
let tid e = e.tid
let kind e = e.kind
let addr e = e.addr
let epoch e = e.epoch
let seq (e : entry) = e.seq
let pos e = e.pos
let head e = e.head
let line_of addr = addr asr 3

let lane t tid =
  let n = Array.length t.lanes in
  if tid >= n then
    t.lanes <-
      Array.init (max (tid + 1) (2 * n)) (fun i ->
          if i < n then t.lanes.(i)
          else { front_epoch = -1; front_live = 0; waiting = nil; tail = nil });
  t.lanes.(tid)

let mark_ok t e =
  if not e.ok then begin
    e.ok <- true;
    t.ok_count <- t.ok_count + 1
  end

(* Append [e] to the enqueue-order array, sliding the pending part to
   the front or doubling the array when it is full. *)
let push_seq t e =
  if t.last = Array.length t.by_seq then begin
    let live = t.last - t.first and n = Array.length t.by_seq in
    let a =
      if n > 0 && 2 * live <= n then t.by_seq
      else Array.make (max 8 (2 * n)) nil
    in
    Array.blit t.by_seq t.first a 0 live;
    Array.fill a live (Array.length a - live) nil;
    t.by_seq <- a;
    t.first <- 0;
    t.last <- live
  end;
  t.by_seq.(t.last) <- e;
  t.last <- t.last + 1

let push t ~tid ~kind ~addr ~epoch =
  t.stamp <- t.stamp + 1;
  let line = line_of addr in
  let prev =
    match Hashtbl.find_opt t.tails line with Some p -> p | None -> nil
  in
  let e =
    { tid; kind; addr; epoch; seq = t.stamp; pos = Vec.length t.entries;
      head = prev == nil; ok = false; line_next = nil; tid_next = nil }
  in
  if prev != nil then prev.line_next <- e;
  Hashtbl.replace t.tails line e;
  Vec.push t.entries e;
  push_seq t e;
  let l = lane t tid in
  if l.tail != nil then l.tail.tid_next <- e;
  l.tail <- e;
  if l.front_live = 0 then begin
    l.front_epoch <- epoch;
    l.front_live <- 1
  end
  else if epoch = l.front_epoch then l.front_live <- l.front_live + 1
  else if l.waiting == nil then l.waiting <- e;
  if e.head && epoch = l.front_epoch then mark_ok t e

let oldest t = if t.first = t.last then -1 else t.by_seq.(t.first).pos

let drain t i =
  let e = Vec.get t.entries i in
  if not e.ok then invalid_arg "Pbuf.drain: entry is not eligible";
  ignore (Vec.swap_remove t.entries i);
  if i < Vec.length t.entries then (Vec.get t.entries i).pos <- i;
  e.pos <- -1;
  t.ok_count <- t.ok_count - 1;
  (* [e] heads its line: the next entry of the line becomes the head *)
  let h = e.line_next in
  if h == nil then Hashtbl.remove t.tails (line_of e.addr)
  else begin
    e.line_next <- nil;
    h.head <- true;
    if h.epoch = (lane t h.tid).front_epoch then mark_ok t h
  end;
  (* [e] is a front entry of its thread: when the last one drains, the
     next epoch's entries take the front *)
  let l = lane t e.tid in
  l.front_live <- l.front_live - 1;
  if l.front_live = 0 && l.waiting != nil then begin
    let epoch = l.waiting.epoch in
    l.front_epoch <- epoch;
    let x = ref l.waiting in
    while !x != nil && !x.epoch = epoch do
      l.front_live <- l.front_live + 1;
      if !x.head then mark_ok t !x;
      x := !x.tid_next
    done;
    l.waiting <- !x
  end;
  if l.front_live = 0 then l.tail <- nil;
  while t.first < t.last && t.by_seq.(t.first).pos < 0 do
    t.by_seq.(t.first) <- nil;
    t.first <- t.first + 1
  done;
  e
