(* One immutable representation: each node's successors and
   predecessors as an ascending, duplicate-free int array, and the
   in-degrees the draws and Kahn's algorithm start from.  [all] is the
   set every result set is filtered from. *)
type t = {
  n : int;
  all : Iset.t;  (** [0 .. n-1] *)
  succ : int array array;
  pred : int array array;
  indeg : int array;
}

let node_count t = t.n

let out_of_range () = invalid_arg "Dag: node out of range"

(* A fresh ascending, duplicate-free copy of [a]; sorts only when [a]
   is not already strictly ascending. *)
let normalize n a =
  let len = Array.length a in
  let ascending = ref true in
  for i = 0 to len - 1 do
    let u = a.(i) in
    if u < 0 || u >= n then out_of_range ();
    if i > 0 && a.(i - 1) >= u then ascending := false
  done;
  if !ascending then Array.copy a
  else Array.of_list (List.sort_uniq Int.compare (Array.to_list a))

(* Successor arrays and in-degrees of [pred], whose arrays are
   ascending and duplicate-free and become the graph's own. *)
let build pred =
  let n = Array.length pred in
  let outdeg = Array.make n 0 in
  Array.iter (Array.iter (fun u -> outdeg.(u) <- outdeg.(u) + 1)) pred;
  let succ = Array.map (fun d -> Array.make d 0) outdeg in
  (* Targets visited in descending order fill each array from its end,
     which leaves it ascending; [outdeg] counts back down to 0. *)
  for v = n - 1 downto 0 do
    let ps = pred.(v) in
    for i = 0 to Array.length ps - 1 do
      let u = ps.(i) in
      outdeg.(u) <- outdeg.(u) - 1;
      succ.(u).(outdeg.(u)) <- v
    done
  done;
  { n;
    all = Iset.of_list (List.init n Fun.id);
    succ;
    pred;
    indeg = Array.map Array.length pred }

let of_preds p =
  let n = Array.length p in
  build (Array.map (normalize n) p)

(* A topological order of [pred]: [Permuted (order, pos)] has
   [order.(i)] the node at position [i] and [pos] its inverse.  Kahn's
   algorithm run backwards from the sinks needs only the predecessor
   arrays.  When every node's predecessors have lower ids, id order is
   the answer and nothing is allocated. *)
type positions = Cyclic | Id_order | Permuted of int array * int array

let topo_positions pred =
  let n = Array.length pred in
  let ordered = ref true in
  Array.iteri
    (fun v ps ->
      let k = Array.length ps in
      if k > 0 && ps.(k - 1) >= v then ordered := false)
    pred;
  if !ordered then Id_order
  else begin
    let outdeg = Array.make n 0 in
    Array.iter (Array.iter (fun u -> outdeg.(u) <- outdeg.(u) + 1)) pred;
    let stack = Array.make n 0 and top = ref 0 in
    let push v =
      stack.(!top) <- v;
      incr top
    in
    Array.iteri (fun v d -> if d = 0 then push v) outdeg;
    let order = Array.make n 0 and next = ref n in
    while !top > 0 do
      decr top;
      let v = stack.(!top) in
      decr next;
      order.(!next) <- v;
      Array.iter
        (fun u ->
          outdeg.(u) <- outdeg.(u) - 1;
          if outdeg.(u) = 0 then push u)
        pred.(v)
    done;
    if !next > 0 then Cyclic
    else begin
      let pos = Array.make n 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      Permuted (order, pos)
    end
  end

(* Ancestor bits are kept for one block of [block_words * 63] positions
   at a time: a row of [block_words] words per node. *)
let block_words = 16
let block_cols = block_words * 63

(* Row [dst] (a word offset) |= the row of column-relative node [src]. *)
let or_row rows ~dst ~src =
  let src = src * block_words in
  for w = 0 to block_words - 1 do
    rows.(dst + w) <- rows.(dst + w) lor rows.(src + w)
  done

(* The transitive reduction of an acyclic [ppred], in place, over
   topological positions ([ppred.(i)] ascending positions of the
   predecessors of the node at position [i]).  An implied edge is
   marked by replacing its position [u] with [lnot u] (negative).

   A predecessor [u] of [i] is implied iff it is an ancestor of a
   predecessor at a higher position.  So [i]'s predecessors are visited
   from the highest position down, each kept one ORs its ancestors into
   [i]'s row, and a predecessor whose bit is already in the row is
   implied.  Rows hold one block of columns at a time, the blocks taken
   from the highest positions down.  A predecessor above the block had
   its edge decided with its own, earlier block; if kept, it ORs in its
   ancestors within this one.  A predecessor below the block has no
   ancestors in it (ancestors sit below their descendants), which ends
   the descending scan.  Cost: each kept edge ORs one row per block at
   or below its source's, O((n + kept edges) * n / 63) word operations
   with the rows' clearing, and each block scans the edges that reach
   it. *)
let reduce_positions ppred =
  let n = Array.length ppred in
  let rows = Array.make (n * block_words) 0 in
  let position e = if e < 0 then lnot e else e in
  let nblocks = (n + block_cols - 1) / block_cols in
  for b = nblocks - 1 downto 0 do
    let lo = b * block_cols in
    let hi = min n (lo + block_cols) in
    for i = lo to n - 1 do
      let row = (i - lo) * block_words in
      Array.fill rows row block_words 0;
      let ps = ppred.(i) in
      let j = ref (Array.length ps - 1) in
      while !j >= 0 && position ps.(!j) >= lo do
        let e = ps.(!j) in
        let u = position e in
        if u >= hi then (if e >= 0 then or_row rows ~dst:row ~src:(u - lo))
        else begin
          let c = u - lo in
          let word = row + (c / 63) and bit = 1 lsl (c mod 63) in
          if rows.(word) land bit <> 0 then ps.(!j) <- lnot u
          else begin
            or_row rows ~dst:row ~src:c;
            rows.(word) <- rows.(word) lor bit
          end
        end;
        decr j
      done
    done
  done

let of_preds_reduced p =
  let n = Array.length p in
  let pred = Array.map (normalize n) p in
  let kept ps =
    if Array.for_all (fun e -> e >= 0) ps then ps
    else Array.of_list (List.filter (fun e -> e >= 0) (Array.to_list ps))
  in
  match topo_positions pred with
  | Cyclic -> build pred
  | Id_order ->
    reduce_positions pred;
    build (Array.map kept pred)
  | Permuted (order, pos) ->
    let ppred =
      Array.map
        (fun v ->
          let a = Array.map (fun u -> pos.(u)) pred.(v) in
          Array.sort Int.compare a;
          a)
        order
    in
    reduce_positions ppred;
    let out = Array.make n [||] in
    Array.iteri
      (fun i ps ->
        let a = Array.map (fun u -> order.(u)) (kept ps) in
        Array.sort Int.compare a;
        out.(order.(i)) <- a)
      ppred;
    build out

let check t v = if v < 0 || v >= t.n then out_of_range ()

let succs t u =
  check t u;
  Array.to_list t.succ.(u)

let preds t v =
  check t v;
  Array.to_list t.pred.(v)

let nodes_where t f = Iset.filter f t.all

(* Kahn's algorithm; shared by [topo_sort] and [has_cycle]. *)
let kahn t =
  let indeg = Array.copy t.indeg in
  let ready = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.push v ready) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty ready) do
    let v = Queue.pop ready in
    incr seen;
    order := v :: !order;
    Array.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.push w ready)
      t.succ.(v)
  done;
  if !seen = t.n then Some (List.rev !order) else None

let topo_sort = kahn
let has_cycle t = kahn t = None

(* [seen.(v)] iff [v] is reachable along [edges] (the [succ] or the
   [pred] arrays) from a node [iter_roots] yields, roots included. *)
let visit t edges iter_roots =
  let seen = Array.make t.n false in
  let rec dfs u =
    if not seen.(u) then begin
      seen.(u) <- true;
      Array.iter dfs edges.(u)
    end
  in
  iter_roots (fun v -> check t v; dfs v);
  seen

let reachable_from t u = visit t t.succ (fun f -> f u)

let down_closure t set =
  nodes_where t (Array.get (visit t t.pred (fun f -> Iset.iter f set)))

let ancestors t v =
  check t v;
  let seen = visit t t.pred (fun f -> Array.iter f t.pred.(v)) in
  nodes_where t (Array.get seen)

let fill_mask t set mask =
  Bytes.fill mask 0 t.n '\000';
  Iset.iter
    (fun v ->
      check t v;
      Bytes.set mask v '\001')
    set

let set_of_mask t mask = nodes_where t (fun v -> Bytes.get mask v <> '\000')

(* No edge enters the set from outside.  A draw walks the successors of
   the nodes it takes and this walks those of the rest, so drawing and
   checking a cut cost the same whatever its size. *)
let is_down_closed_mask t mask =
  let closed = ref true and u = ref 0 in
  while !closed && !u < t.n do
    if Bytes.get mask !u = '\000' then begin
      let ws = t.succ.(!u) in
      for i = 0 to Array.length ws - 1 do
        if Bytes.get mask ws.(i) <> '\000' then closed := false
      done
    end;
    incr u
  done;
  !closed

let is_down_closed t set =
  let mask = Bytes.create t.n in
  fill_mask t set mask;
  is_down_closed_mask t mask

(* The ready nodes live in [ready.(0 .. !len-1)]; a node becomes ready
   at most once, so [n] slots suffice.  Removal moves the last slot into
   the drawn one, so the same draws pick the same nodes.  The scratch
   arrays are the sampler's, refilled by each draw, and masks are a
   byte per node: a draw allocates nothing. *)
let sampler t =
  let indeg = Array.make t.n 0 and ready = Array.make t.n 0 in
  fun ?size rng mask ->
    let target =
      match size with
      | Some k -> min k t.n
      | None -> Random.State.int rng (t.n + 1)
    in
    Array.blit t.indeg 0 indeg 0 t.n;
    let len = ref 0 in
    for v = 0 to t.n - 1 do
      if indeg.(v) = 0 then begin
        ready.(!len) <- v;
        incr len
      end
    done;
    Bytes.fill mask 0 t.n '\000';
    let count = ref 0 in
    while !count < target && !len > 0 do
      let i = Random.State.int rng !len in
      let v = ready.(i) in
      decr len;
      ready.(i) <- ready.(!len);
      Bytes.set mask v '\001';
      incr count;
      let ws = t.succ.(v) in
      for j = 0 to Array.length ws - 1 do
        let w = ws.(j) in
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          ready.(!len) <- w;
          incr len
        end
      done
    done

let random_down_closed ?size t rng =
  let mask = Bytes.create t.n in
  sampler t ?size rng mask;
  set_of_mask t mask

(* Bitmask of each node's closure along [edges], the node included. *)
let closure_masks t edges =
  Array.init t.n (fun v ->
      let seen = visit t edges (fun f -> f v) in
      Array.fold_right (fun s m -> (m lsl 1) lor Bool.to_int s) seen 0)

(* Decide nodes from the highest id down.  Taking [v] takes its whole
   down-closure and leaving it out leaves out its whole up-closure; an
   undecided node is in neither, so both branches stay consistent and
   every leaf is a distinct down-closed cut, cycles included.  The
   leave-out branch's cuts are consed first and the take branch's on
   top, which lists the cuts in descending bitmask order. *)
let all_down_closed t =
  if t.n > 24 then invalid_arg "Dag.all_down_closed: too many nodes";
  let down = closure_masks t t.pred and up = closure_masks t t.succ in
  let rec walk v taken left acc =
    if v < 0 then nodes_where t (fun u -> taken land (1 lsl u) <> 0) :: acc
    else if (taken lor left) land (1 lsl v) <> 0 then
      walk (v - 1) taken left acc
    else
      walk (v - 1) (taken lor down.(v)) left
        (walk (v - 1) taken (left lor up.(v)) acc)
  in
  walk (t.n - 1) 0 0 []
