type kind =
  | Load
  | Store
  | Rmw

type flush_kind =
  | Clflushopt
  | Clwb

type fence_kind =
  | Sfence
  | Mfence

type access = {
  tid : int;
  addr : int;
  size : int;
  value : int64;
  space : Addr.space;
}

type site = string

type t =
  | Access of kind * access
  | Persist_barrier of { tid : int; site : site }
  | New_strand of { tid : int; site : site }
  | Label of int * string
  | Flush of { tid : int; kind : flush_kind; addr : int }
  | Fence of { tid : int; kind : fence_kind }
  | Pdrain of { tid : int; kind : flush_kind; addr : int }

let tid = function
  | Access (_, a) -> a.tid
  | Persist_barrier { tid; _ }
  | New_strand { tid; _ }
  | Label (tid, _)
  | Flush { tid; _ }
  | Fence { tid; _ }
  | Pdrain { tid; _ } ->
    tid

let is_persist = function
  | Access ((Store | Rmw), a) -> Addr.equal_space a.space Addr.Persistent
  | Access (Load, _) | Persist_barrier _ | New_strand _ | Label _ | Flush _
  | Fence _ | Pdrain _ ->
    false

let equal_kind a b =
  match a, b with
  | Load, Load | Store, Store | Rmw, Rmw -> true
  | (Load | Store | Rmw), _ -> false

let equal_flush_kind a b =
  match a, b with
  | Clflushopt, Clflushopt | Clwb, Clwb -> true
  | (Clflushopt | Clwb), _ -> false

let equal_fence_kind a b =
  match a, b with
  | Sfence, Sfence | Mfence, Mfence -> true
  | (Sfence | Mfence), _ -> false

let equal a b =
  match a, b with
  | Access (k1, a1), Access (k2, a2) ->
    equal_kind k1 k2
    && a1.tid = a2.tid && a1.addr = a2.addr && a1.size = a2.size
    && Int64.equal a1.value a2.value
    && Addr.equal_space a1.space a2.space
  | Persist_barrier b1, Persist_barrier b2 ->
    b1.tid = b2.tid && String.equal b1.site b2.site
  | New_strand s1, New_strand s2 ->
    s1.tid = s2.tid && String.equal s1.site s2.site
  | Label (t1, s1), Label (t2, s2) -> t1 = t2 && String.equal s1 s2
  | Flush f1, Flush f2 ->
    f1.tid = f2.tid && equal_flush_kind f1.kind f2.kind && f1.addr = f2.addr
  | Fence f1, Fence f2 -> f1.tid = f2.tid && equal_fence_kind f1.kind f2.kind
  | Pdrain d1, Pdrain d2 ->
    d1.tid = d2.tid && equal_flush_kind d1.kind d2.kind && d1.addr = d2.addr
  | ( ( Access _ | Persist_barrier _ | New_strand _ | Label _ | Flush _
      | Fence _ | Pdrain _ ),
      _ ) ->
    false

let kind_name = function
  | Load -> "ld"
  | Store -> "st"
  | Rmw -> "rmw"

let kind_of_name = function
  | "ld" -> Load
  | "st" -> Store
  | "rmw" -> Rmw
  | s -> failwith ("Event.kind_of_name: " ^ s)

let flush_name = function
  | Clflushopt -> "clflushopt"
  | Clwb -> "clwb"

let flush_of_name = function
  | "clflushopt" -> Clflushopt
  | "clwb" -> Clwb
  | s -> failwith ("Event.of_string: bad flush kind: " ^ s)

let fence_name = function
  | Sfence -> "sfence"
  | Mfence -> "mfence"

(* A named site adds one token to an event's text; an unnamed one adds
   none. *)
let at site = if site = "" then "" else " " ^ site

let to_string = function
  | Access (k, a) ->
    Printf.sprintf "%s %d %d %d %Ld" (kind_name k) a.tid a.addr a.size a.value
  | Persist_barrier { tid; site } -> Printf.sprintf "pb %d%s" tid (at site)
  | New_strand { tid; site } -> Printf.sprintf "ns %d%s" tid (at site)
  | Label (tid, s) -> Printf.sprintf "lb %d %s" tid s
  | Flush { tid; kind; addr } ->
    Printf.sprintf "fl %s %d %d" (flush_name kind) tid addr
  | Fence { tid; kind } -> Printf.sprintf "fe %s %d" (fence_name kind) tid
  | Pdrain { tid; kind; addr } ->
    Printf.sprintf "pd %s %d %d" (flush_name kind) tid addr

let of_string line =
  match String.split_on_char ' ' line with
  | [ ("ld" | "st" | "rmw") as k; tid; addr; size; value ] ->
    let addr = int_of_string addr in
    Access
      ( kind_of_name k,
        { tid = int_of_string tid;
          addr;
          size = int_of_string size;
          value = Int64.of_string value;
          space = Addr.space_of addr } )
  | [ "pb"; tid ] -> Persist_barrier { tid = int_of_string tid; site = "" }
  | [ "pb"; tid; site ] -> Persist_barrier { tid = int_of_string tid; site }
  | [ "ns"; tid ] -> New_strand { tid = int_of_string tid; site = "" }
  | [ "ns"; tid; site ] -> New_strand { tid = int_of_string tid; site }
  | "lb" :: tid :: rest ->
    Label (int_of_string tid, String.concat " " rest)
  | [ "fl"; kind; tid; addr ] ->
    Flush
      { tid = int_of_string tid; kind = flush_of_name kind;
        addr = int_of_string addr }
  | [ "pd"; kind; tid; addr ] ->
    Pdrain
      { tid = int_of_string tid; kind = flush_of_name kind;
        addr = int_of_string addr }
  | [ "fe"; kind; tid ] ->
    let kind =
      match kind with
      | "sfence" -> Sfence
      | "mfence" -> Mfence
      | s -> failwith ("Event.of_string: bad fence kind: " ^ s)
    in
    Fence { tid = int_of_string tid; kind }
  | _ -> failwith ("Event.of_string: malformed line: " ^ line)
