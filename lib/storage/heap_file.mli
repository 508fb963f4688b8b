(** Heap files: temporal relations on disk as pages of fixed-width slots.

    Layout (format version 2): a header page (magic, version, page size,
    slot size, tuple count, and the schema as a CSV-style declaration)
    followed by data pages, each holding a slot count, up to
    [(page_size - 8) / slot_bytes] encoded tuples, and a CRC-32 trailer
    in the last 4 bytes covering everything before it.  Version-1 files
    (no trailers) are still readable; new files are always version 2.
    Scans read one page at a time and charge every page transfer to the
    supplied {!Io_stats}.

    Corruption and fault handling: every page read on a version-2 file is
    checksum-verified — a mismatch raises {!Corrupt_page} (and bumps the
    stats' corrupt counter), or, in a [`Skip] scan, drops the page's
    tuples and continues.  With a {!Fault} injector installed on the
    reader, transient read faults are retried up to 3 times with doubled
    backoff (each retry charged to {!Io_stats.retry}); torn pages and bit
    flips surface through the checksum like real corruption would.

    Heap files preserve physical tuple order — the property the paper's
    algorithms care about (sorted / k-ordered / random). *)

open Relation

val default_page_size : int
(** 8192 bytes. *)

exception Corrupt_page of { path : string; page : int }
(** A page's CRC-32 trailer did not match its contents.  [page] is the
    0-based data-page index, or [-1] for the header page. *)

(** {1 Writing} *)

type writer

val create :
  ?page_size:int ->
  ?slot_bytes:int ->
  stats:Io_stats.t ->
  string ->
  Schema.t ->
  writer
(** Create (truncate) the named file.
    @raise Invalid_argument if a page cannot hold at least one slot, or
    the schema declaration does not fit the header page. *)

val append : writer -> Tuple.t -> unit
(** @raise Invalid_argument if the tuple does not fit a slot or disagrees
    with the schema. *)

val close_writer : writer -> unit
(** Flush the final partial page and the header.  Idempotent. *)

(** {1 Reading} *)

type reader

val open_reader : ?fault:Fault.t -> stats:Io_stats.t -> string -> reader
(** [fault] installs a deterministic fault injector on every subsequent
    page read (the header page is read before injection starts).
    @raise Invalid_argument on a missing or malformed file.
    @raise Corrupt_page if a version-2 header fails its checksum. *)

val schema : reader -> Schema.t
val cardinality : reader -> int
val page_size : reader -> int
val slot_bytes : reader -> int

val data_pages : reader -> int
(** Number of data pages (excluding the header). *)

val format_version : reader -> int
(** 1 (no page trailers) or 2 (CRC-32 trailers). *)

val scan : ?on_corrupt:[ `Fail | `Skip ] -> reader -> Tuple.t Seq.t
(** Sequential scan in physical order; pages are charged as they are
    pulled.  The sequence may be re-consumed (each traversal re-reads).

    [on_corrupt] (default [`Fail]) decides what a checksum mismatch does:
    [`Fail] lets {!Corrupt_page} escape from the sequence; [`Skip] drops
    the corrupt page's tuples and scans on — the page is still counted in
    {!Io_stats.corrupt_pages}, so the loss is visible. *)

val close_reader : reader -> unit

(** {1 Whole-relation convenience} *)

val write_relation :
  ?page_size:int -> ?slot_bytes:int -> stats:Io_stats.t -> string -> Trel.t -> unit

val read_relation :
  ?fault:Fault.t ->
  ?on_corrupt:[ `Fail | `Skip ] ->
  stats:Io_stats.t ->
  string ->
  Trel.t
