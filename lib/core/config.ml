type mode =
  | Strict
  | Epoch
  | Strand

type consistency =
  | Sc
  | Tso
  | Rmo

type px86 =
  | Px86_sync
  | Px86_buffered

type t = {
  mode : mode;
  consistency : consistency;
  track_gran : int;
  persist_gran : int;
  coalescing : bool;
  tso_conflicts : bool;
  persistent_only_conflicts : bool;
  record_graph : bool;
  px86 : px86;
}

let mode_name = function
  | Strict -> "strict"
  | Epoch -> "epoch"
  | Strand -> "strand"

let mode_of_name = function
  | "strict" -> Some Strict
  | "epoch" -> Some Epoch
  | "strand" -> Some Strand
  | _ -> None

let all_modes = [ Strict; Epoch; Strand ]

let consistency_name = function
  | Sc -> "sc"
  | Tso -> "tso"
  | Rmo -> "rmo"

let check_gran what g =
  if g < 8 || not (Memsim.Addr.is_power_of_two g) then
    invalid_arg
      (Printf.sprintf "Config: %s granularity must be a power of two >= 8 (got %d)"
         what g)

let default_track_gran = 8

let make ?(consistency = Sc) ?(track_gran = default_track_gran)
    ?(persist_gran = 8)
    ?(coalescing = true) ?(tso_conflicts = false)
    ?(persistent_only_conflicts = false) ?(record_graph = false)
    ?(px86 = Px86_sync) mode =
  check_gran "tracking" track_gran;
  check_gran "persist" persist_gran;
  { mode;
    consistency;
    track_gran;
    persist_gran;
    coalescing;
    tso_conflicts;
    persistent_only_conflicts;
    record_graph;
    px86 }

let default mode = make mode

let pp ppf t =
  Format.fprintf ppf
    "%s%s (track=%dB, persist=%dB%s%s%s%s)" (mode_name t.mode)
    (match t.mode, t.consistency with
    | Strict, (Tso | Rmo) -> "/" ^ consistency_name t.consistency
    | (Strict | Epoch | Strand), _ -> "")
    t.track_gran t.persist_gran
    (if t.coalescing then "" else ", no-coalesce")
    (if t.tso_conflicts then ", tso-conflicts" else "")
    (if t.persistent_only_conflicts then ", persistent-only" else "")
    (match t.px86 with Px86_sync -> "" | Px86_buffered -> ", px86-buffered")
