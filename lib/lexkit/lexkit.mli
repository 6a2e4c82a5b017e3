(** Shared lexing utilities for the hand-written language front-ends. *)

type pos = { line : int; col : int; offset : int }

val pp_pos : Format.formatter -> pos -> unit
val start_pos : pos

exception Error of string * pos
(** Raised by front-end lexers and parsers on malformed input. *)

val error : pos -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error pos fmt ...] raises {!Error} with a formatted message. *)

(** Structured diagnostics for the whole ingest–train–predict path.
    Every failure a hostile or malformed input can provoke is one of
    these kinds; anything else escaping a front-end or loader is a
    bug (and the fuzz suite hunts for it). *)
module Diag : sig
  type kind =
    | Parse_error  (** malformed source: lexer or parser rejection *)
    | Depth_limit_exceeded  (** nesting beyond {!limits}, or stack overflow *)
    | Size_limit_exceeded  (** oversized input or exhausted step budget *)
    | Io_error  (** file-system failure while reading or writing *)
    | Corrupt_model  (** model file truncated, mangled, or wrong version *)

  type t = { kind : kind; msg : string; file : string option; pos : pos option }

  exception Error of t

  val kind_name : kind -> string
  val all_kinds : kind list
  val make : ?file:string -> ?pos:pos -> kind -> string -> t

  val error : ?file:string -> ?pos:pos -> kind -> ('a, Format.formatter, unit, 'b) format4 -> 'a
  (** Raise {!Error} with a formatted message. *)

  val with_file : string -> t -> t
  (** Attach a file name if the diagnostic does not carry one yet. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

(** {2 Resource guards}

    Hard bounds that make front-ends total: no input may overflow the
    stack, hang the parser, or exhaust memory through sheer size. *)

type limits = {
  max_input_bytes : int;  (** sources larger than this are rejected *)
  max_depth : int;  (** maximal grammar nesting depth *)
  max_parse_steps : int;  (** overall parser work budget per file *)
}

val default_limits : limits
(** 8 MiB inputs, depth 1000, 20M parse steps. *)

val current_limits : unit -> limits
val set_limits : limits -> unit

val with_limits : limits -> (unit -> 'a) -> 'a
(** Run with temporary limits; restores the previous ones. *)

val check_input_size : string -> unit
(** Raises {!Diag.Error} with [Size_limit_exceeded] when the source
    exceeds [max_input_bytes]. Called by every front-end lexer. *)

(** Recursion-depth and step-budget guard threaded through the
    recursive-descent parsers. *)
module Guard : sig
  type t

  val create : unit -> t
  (** Snapshot the current {!limits}. *)

  val enter : t -> pos -> unit
  (** Count one step and one nesting level; raises {!Diag.Error} when
      a limit is crossed. Pair with {!leave}. *)

  val leave : t -> unit
end

val diag_of_exn : ?file:string -> exn -> Diag.t option
(** Classify an exception: {!Diag.Error} and {!Error} map to their
    diagnostics, [Stack_overflow] to [Depth_limit_exceeded],
    [Sys_error] to [Io_error]; anything else is [None] (a bug, not an
    input problem). *)

val protect : ?file:string -> (unit -> 'a) -> ('a, Diag.t) result
(** Run a parse/load thunk, turning every classifiable exception into
    [Error diag]. Unclassifiable exceptions are re-raised. *)

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path contents] writes [contents] to a temp file
    in [path]'s directory and renames it over [path]. A crash (or
    SIGKILL) at any point leaves either the previous file intact or the
    complete new one — never a truncated mix. Raises [Sys_error] on I/O
    failure, after removing the temp file. *)

val write_file_atomic_gen : string -> (out_channel -> unit) -> unit
(** {!write_file_atomic} with a writer callback instead of an
    in-memory string: the callback streams the contents straight to the
    temp file's channel, so a large artifact (a shard, a training
    checkpoint) never has to exist as one heap string. Same atomicity
    contract, and the same cleanup contract on every error path: if the
    callback raises mid-save — or the flush, close, or rename fails —
    the temp file is unlinked before the exception propagates. *)

(** A character cursor over an in-memory source string, tracking line
    and column. *)
module Cursor : sig
  type t

  val make : string -> t
  val pos : t -> pos
  val eof : t -> bool

  val peek : t -> char option
  val peek2 : t -> char option
  (** Character after the next one, if any. *)

  val advance : t -> unit
  val next : t -> char
  (** Consume and return; raises {!Error} at end of input. *)

  val eat : t -> char -> bool
  (** Consume the next char iff it equals the argument. *)

  val take_while : t -> (char -> bool) -> string
  val skip_while : t -> (char -> bool) -> unit
end

val is_digit : char -> bool
val is_ident_start : char -> bool
(** Letters, underscore and [$]. *)

val is_ident_char : char -> bool

val lex_string_literal : Cursor.t -> quote:char -> string
(** Consumes a string literal whose opening [quote] has already been
    consumed; handles the usual backslash escapes. Returns the decoded
    contents. *)

val lex_number : Cursor.t -> string
(** Consumes an integer or decimal literal (first char not yet
    consumed must be a digit); returns its lexeme. *)

(** Binary record IO for the version-3 model formats: fixed-width
    little-endian integers and IEEE-754 floats, length-prefixed
    strings and sections. Purely in-memory (writers append to a
    [Buffer.t], readers walk a [string]); every malformed read raises
    [Failure] with a byte offset, which the model loaders convert to a
    [Corrupt_model] diagnostic. *)
module Binio : sig
  val w_int : Buffer.t -> int -> unit
  (** Written as a little-endian 64-bit value. *)

  val w_u8 : Buffer.t -> int -> unit
  val w_float : Buffer.t -> float -> unit
  (** Raw IEEE-754 bits, little-endian — exact round-trip. *)

  val w_string : Buffer.t -> string -> unit
  (** Length-prefixed, no escaping. *)

  val w_floats : Buffer.t -> float array -> unit
  (** Count-prefixed raw float array. *)

  val w_section : Buffer.t -> tag:int -> Buffer.t -> unit
  (** [w_section buf ~tag payload] appends tag byte, payload length,
      payload. *)

  val checksum : string -> int
  (** FNV-1a folded to 62 bits, over the full section body — the end
      section stores it so any bit flip is detected. *)

  val checksum_seed : int
  val checksum_add : int -> string -> int
  (** Incremental checksum: [checksum_add checksum_seed s = checksum s],
      and folding a string in pieces equals folding the concatenation.
      Lets a mapped loader checksum a section prefix from the heap and
      finish over the mapped float payload. *)

  type reader

  val reader : ?pos:int -> string -> reader
  val at_end : reader -> bool

  val offset : reader -> int
  (** Current read position, in bytes. *)

  val remaining : reader -> int
  (** Bytes left to read — what per-element size caps bound hostile
      counts against before allocating. *)

  val r_u8 : reader -> string -> int

  val r_int : reader -> string -> int
  (** The [string] argument names what is being read, for error
      messages. Fails on values outside OCaml's int range. *)

  val r_float : reader -> string -> float

  val r_skip : reader -> int -> string -> unit
  (** Advance past [n] bytes (bounds-checked). *)

  val r_string : reader -> string -> string
  val r_floats : reader -> string -> float array

  val r_section : reader -> tag:int -> what:string -> int
  (** Consume a section header; checks the tag, bounds the payload,
      and returns the offset where the payload must end. *)

  val end_section : reader -> stop:int -> what:string -> unit
  (** Verify the reader consumed the section exactly. *)
end

(** How a loaded model holds its float payloads: copied into the OCaml
    heap, or read through [Bigarray] views over a mapped file. *)
module Storage : sig
  type t =
    | Heap of { note : string option }
        (** [note] explains why a requested mapped load was downgraded
            to a copy (misaligned payload, big-endian host, map
            failure); [None] for a plain load. *)
    | Mapped of { bytes : int }  (** [bytes] = mapped file bytes. *)

  val heap : t
  (** [Heap { note = None }]. *)

  val kind_name : t -> string
  (** ["heap"] or ["mapped"]. *)

  val mapped_bytes : t -> int
  val note : t -> string option

  val merge : t -> t -> t
  (** Combine the reports of two files backing one model entry (CRF +
      SGNS): mapped bytes add; a mixed pair reports as mapped. *)
end

(** Read-only file mappings for zero-copy model loading. *)
module Mmap : sig
  type t

  val map_floats : string -> t
  (** Map the whole file read-only as a [float64] view (any tail
      shorter than 8 bytes is dropped). The fd is closed immediately;
      the pages live until the bigarray is collected, so dropping the
      last reference is an implicit munmap. Raises [Unix.Unix_error]
      on open/map failure. *)

  val path : t -> string

  val size : t -> int
  (** File size in bytes at map time. *)

  val sub :
    t ->
    off_bytes:int ->
    len:int ->
    (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** [len] floats starting at byte offset [off_bytes] (must be
      8-aligned). Raises [Failure] when the slice leaves the file. *)

  val checksum_floats :
    ?h:int ->
    (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
    off:int ->
    len:int ->
    int
  (** Continue a {!Binio.checksum_add} fold over [len] floats of a
      mapped view starting at element [off] — byte-identical to
      checksumming the underlying file bytes on a little-endian host
      (the only hosts the mapped path accepts). *)
end
