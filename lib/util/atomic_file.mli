(** Crash-safe whole-file writes (tempfile + flush + atomic rename).

    [write ~path f] runs [f] on an output channel backed by a tempfile
    in [path]'s directory, flushes, and renames it over [path]. If [f],
    the flush or the rename raises, the tempfile is removed and the
    previous contents of [path] survive untouched — a simulated (or
    real) mid-write kill can never leave a truncated artifact at [path].

    Only a regular file is ever replaced: when [path] exists as anything
    else — a FIFO, a directory, a device node or a symbolic link — [write]
    raises [Sys_error] before creating the tempfile. *)

val write : path:string -> (out_channel -> unit) -> unit

val temp_path : string -> string
(** The tempfile name [write] uses for [path] — exposed so tests can
    assert no stale tempfile is left behind. *)
