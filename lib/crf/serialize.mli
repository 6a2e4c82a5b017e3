(** Saving and loading trained CRF models.

    [save] writes the version-4 binary format: a text magic line, then
    length-prefixed sections — the label/rel string tables once, and
    every weight and candidate record as interned ids and raw
    little-endian floats. Weight sections store their keys and values
    in separate runs and are preceded by pad sections that 8-align the
    float run in the file, which is what lets {!load_mapped} serve the
    values straight out of an [mmap] instead of copying them. The
    writer sorts each section and pads deterministically, so it is a
    canonical form: save → load → save round-trips byte-identically.

    Version 4 is the only format that loads. A file whose magic line
    names version 1, 2 or 3 (the older text and binary layouts) is an
    [Error] with kind [Corrupt_model] that names the version and says
    to retrain; any other first line is a bad-magic [Corrupt_model].

    The format is self-checking (section framing and a per-section
    checksum trailer), so truncation, trailing garbage and bit-flips
    are detected. Loaders never raise [Failure]; every malformed input
    is reported as a {!Lexkit.Diag.t} with kind [Corrupt_model] and a
    byte offset in the message. *)

val save : Train.model -> string -> unit
(** [save model path] writes the model to [path]. Raises [Sys_error]
    on I/O failure. *)

val load : string -> (Train.model, Lexkit.Diag.t) result
(** Read a model back; [Error] carries an [Io_error] (unreadable file)
    or a [Corrupt_model] diagnostic. Never raises. *)

val load_exn : string -> Train.model
(** Like {!load} but raises {!Lexkit.Diag.Error} on failure. *)

val load_mapped :
  string -> (Train.model * Lexkit.Storage.t, Lexkit.Diag.t) result
(** Zero-copy load: walk the v4 structure reading only headers, symbol
    tables, candidate ids and weight *keys*, then map the file and
    wire the weight tables to [Bigarray] views over its float runs —
    O(everything-but-the-floats), and the floats are the bulk of a
    trained model. The mapped payloads are checksummed lazily, at the
    first inference entry point; a mismatch then raises
    {!Lexkit.Diag.Error} with kind [Corrupt_model].

    Environmental obstacles (misaligned payload, big-endian host, mmap
    failure) fall back to the v4 copy loader and report [Storage.Heap]
    with a note saying why. A file that is not a v4 model (an older
    version included) and structural damage are an [Error], as in
    {!load}. The returned model is read-only in its weight tables. *)

val to_string : Train.model -> string
(** The version-4 binary image [save] writes. *)

val of_string : ?source:string -> string -> (Train.model, Lexkit.Diag.t) result
(** Parse a model held in memory — the fuzz suite's entry point. *)

(** {2 Training checkpoints}

    Mid-training state for out-of-core runs ({!Train.train_of_shards}):
    the full trainer state from {!Fast.dump_full} — weights, averaging
    accumulators, step clock — plus the model config and the resume
    cursor. Floats round-trip as exact bits, so a resumed run makes
    bit-identical updates. Checkpoint files are self-checking like
    models (magic line, section framing, checksum trailer) and load
    through the same diagnostic discipline. *)

type checkpoint = {
  ck_config : Train.config;
  ck_next_it : int;  (** first iteration the resumed run executes *)
  ck_next_shard : int;  (** first shard of that iteration *)
  ck_n_shards : int;
      (** shard count at save time — resuming against a re-sharded
          corpus is rejected at load *)
  ck_jobs : int;
      (** job count of the saving run; bit-identity only holds when
          the resumed run matches it *)
  ck_fast : Fast.model;  (** via {!Fast.restore_full} *)
}

val checkpoint_save :
  string ->
  config:Train.config ->
  next_it:int ->
  next_shard:int ->
  n_shards:int ->
  jobs:int ->
  Fast.model ->
  unit
(** Atomically write a checkpoint (temp file + rename): a SIGKILL at
    any point leaves the previous checkpoint intact or the new one
    complete, never a torn file. Raises [Sys_error] on I/O failure. *)

val checkpoint_to_string :
  config:Train.config ->
  next_it:int ->
  next_shard:int ->
  n_shards:int ->
  jobs:int ->
  Fast.model ->
  string

val checkpoint_load : string -> (checkpoint, Lexkit.Diag.t) result
(** [Error] carries [Io_error] (unreadable) or [Corrupt_model]
    (truncated, mangled, bad cursor, or count/checksum mismatch). *)

val checkpoint_of_string :
  ?source:string -> string -> (checkpoint, Lexkit.Diag.t) result
