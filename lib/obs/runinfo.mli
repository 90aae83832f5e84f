(** Self-describing run manifests ([--manifest-out]).

    A manifest records what is needed to interpret a measurement later:
    which tool produced it, with which arguments, at which commit, on
    which OCaml and how many cores.  It serializes through the
    dependency-free {!Json} codec as one object whose ["schema"] field
    is ["persistsim-run/2"]. *)

val write_file : tool:string -> string -> unit
(** [write_file ~tool path] snapshots the current process ([tool],
    argv, creation time, [git describe --always --dirty --tags] or
    ["unknown"] outside a repository or without a [git] binary, OCaml
    version, OS, word size, [Domain.recommended_domain_count ()]) and
    writes it to [path] as one line of JSON. *)
