(** Minimal JSON tree, printer and parser.

    Just enough for the observability exports (metrics dumps, Chrome
    trace files, persist-graph JSONL) and for the tests that read them
    back — no external dependency.  The printer emits compact one-line
    JSON; the parser accepts any whitespace and rejects trailing
    garbage. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed with enough digits to round-trip *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val of_string : string -> (t, string) result
(** [Error msg] carries the byte offset of the failure.  Numbers
    without [.], [e] or [E] parse as [Int], everything else as
    [Float]. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_float : t -> float option
(** [Int] or [Float] as a float. *)
