type region = {
  base : int;
  data : bytes;
  mutable brk : int;  (* next never-allocated offset *)
  mutable free_list : (int * int) list;  (* (offset, size), first fit *)
  sizes : (int, int) Hashtbl.t;  (* offset -> size of live blocks *)
  mutable live_bytes : int;
}

type t = { persistent : region; volatile : region }

let make_region ~base ~capacity =
  { base;
    data = Bytes.make capacity '\000';
    brk = 8;  (* never hand out address [base]: reserve a null slot *)
    free_list = [];
    sizes = Hashtbl.create 64;
    live_bytes = 0 }

let create ?(persistent_capacity = 1 lsl 20) ?(volatile_capacity = 1 lsl 20)
    () =
  if persistent_capacity <= 0 || volatile_capacity <= 0 then
    invalid_arg "Memory.create: capacities must be positive";
  if persistent_capacity > Addr.volatile_base then
    invalid_arg "Memory.create: persistent capacity exceeds address space";
  { persistent = make_region ~base:0 ~capacity:persistent_capacity;
    volatile = make_region ~base:Addr.volatile_base ~capacity:volatile_capacity }

let region t addr =
  match Addr.space_of addr with
  | Addr.Persistent -> t.persistent
  | Addr.Volatile -> t.volatile

let region_of_space t = function
  | Addr.Persistent -> t.persistent
  | Addr.Volatile -> t.volatile

let check_access r ~addr ~size =
  (match size with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg "Memory: size must be 1, 2, 4 or 8");
  if not (Addr.is_aligned ~size addr) then
    invalid_arg
      (Printf.sprintf "Memory: unaligned %d-byte access at 0x%x" size addr);
  let off = addr - r.base in
  if off < 0 || off + size > Bytes.length r.data then
    invalid_arg (Printf.sprintf "Memory: access at 0x%x out of bounds" addr)

let load t ~addr ~size =
  let r = region t addr in
  check_access r ~addr ~size;
  let off = addr - r.base in
  match size with
  | 8 -> Bytes.get_int64_le r.data off
  | 4 -> Int64.of_int32 (Bytes.get_int32_le r.data off)
  | 2 -> Int64.of_int (Bytes.get_uint16_le r.data off)
  | _ -> Int64.of_int (Bytes.get_uint8 r.data off)

let store t ~addr ~size v =
  let r = region t addr in
  check_access r ~addr ~size;
  let off = addr - r.base in
  match size with
  | 8 -> Bytes.set_int64_le r.data off v
  | 4 -> Bytes.set_int32_le r.data off (Int64.to_int32 v)
  | 2 -> Bytes.set_uint16_le r.data off (Int64.to_int v land 0xffff)
  | _ -> Bytes.set_uint8 r.data off (Int64.to_int v land 0xff)

(* First-fit allocation from the free list, falling back to bumping
   [brk].  Freed blocks are reusable but adjacent blocks are not
   merged; workloads allocate uniform sizes, so fragmentation is not a
   concern. *)
let alloc t space n =
  if n <= 0 then invalid_arg "Memory.alloc: size must be positive";
  let r = region_of_space t space in
  let n = Addr.align_up n ~quantum:8 in
  let rec take acc = function
    | [] -> None
    | (off, size) :: rest when size >= n ->
      let remainder =
        if size > n then [ (off + n, size - n) ] else []
      in
      r.free_list <- List.rev_append acc (remainder @ rest);
      Some off
    | entry :: rest -> take (entry :: acc) rest
  in
  let off =
    match take [] r.free_list with
    | Some off -> off
    | None ->
      let off = r.brk in
      if off + n > Bytes.length r.data then raise Out_of_memory;
      r.brk <- off + n;
      off
  in
  Hashtbl.replace r.sizes off n;
  r.live_bytes <- r.live_bytes + n;
  Bytes.fill r.data off n '\000';
  r.base + off

let free t addr =
  let r = region t addr in
  let off = addr - r.base in
  match Hashtbl.find_opt r.sizes off with
  | None ->
    invalid_arg (Printf.sprintf "Memory.free: 0x%x is not allocated" addr)
  | Some size ->
    Hashtbl.remove r.sizes off;
    r.live_bytes <- r.live_bytes - size;
    r.free_list <- (off, size) :: r.free_list

let allocated_bytes t space = (region_of_space t space).live_bytes
