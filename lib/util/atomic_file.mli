(** Crash-safe whole-file writes (tempfile + flush + atomic rename), and
    the checked read of the versioned artifacts written this way.

    [write ~path f] runs [f] on an output channel backed by a tempfile
    in [path]'s directory, flushes, and renames it over [path]. If [f],
    the flush or the rename raises, the tempfile is removed and the
    previous contents of [path] survive untouched — a simulated (or
    real) mid-write kill can never leave a truncated artifact at [path].

    Only a regular file is ever replaced: when [path] exists as anything
    else — a FIFO, a directory, a device node or a symbolic link — or its
    directory is missing, [write] raises [Sys_error] before creating the
    tempfile ({!check_target}). *)

val write : path:string -> (out_channel -> unit) -> unit

val check_target : path:string -> unit
(** Raises [Sys_error] (["<path>: <reason>"], as [open_out] words it)
    when [write ~path] would fail before calling its writer: [path]'s
    directory is missing or not a directory, or [path] exists as
    anything but a regular file. Never opens [path], so a FIFO there
    cannot block it. [write] runs this check first; a command can run
    it before any work, so that an unwritable output is refused at
    once. *)

val read_lines : string -> (string list, string) result
(** Every line of the file, without terminators; [Error] with the system
    message when it cannot be opened. *)

val read_checked :
  path:string -> header:(string * (string -> string)) list ->
  checksum:(string list -> string) -> corrupt:string -> truncated:string ->
  (string list, string) result
(** Read a versioned artifact: the header lines (magic, platform,
    fingerprint, …), then [checksum <h>], then the body. Each
    [(expected, mismatch)] of [header] must equal its line, in order, or
    the load fails with [mismatch line]; [h] must equal [checksum body]
    or it fails with [corrupt]. A file too short to hold the header and
    checksum lines fails with [truncated] before any other check. Returns
    the body lines. *)

val temp_path : string -> string
(** The tempfile name [write] uses for [path] — exposed so tests can
    assert no stale tempfile is left behind. *)
