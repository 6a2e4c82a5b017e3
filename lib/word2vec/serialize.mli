(** Saving and loading trained SGNS models. Both word and context
    matrices are stored (prediction by the paper's equation (4) needs
    the context vectors too). Round-trips to identical predictions
    (tested).

    [save] writes the version-4 binary format: a text magic line, then
    length-prefixed sections — each vocabulary once, and the embedding
    matrices as raw little-endian floats (exact round-trip, no decimal
    printing). Matrix sections are preceded by pad sections that
    8-align their float runs in the file, which is what lets
    {!load_mapped} serve the vectors straight out of an [mmap] instead
    of copying them. Emission is in vocab-id order and pads are
    deterministic, so save → load → save is byte-identical.

    Version 4 is the only format that loads. A file whose magic line
    names version 1, 2 or 3 (the older word2vec-style text and binary
    layouts) is an [Error] with kind [Corrupt_model] that names the
    version and says to retrain; any other first line is a bad-magic
    [Corrupt_model].

    The format is self-checking (section framing and a per-section
    checksum trailer), so truncation, trailing garbage and bit-flips
    are detected. Loaders never raise [Failure]; every malformed input
    is reported as a {!Lexkit.Diag.t} with kind [Corrupt_model] and a
    byte offset in the message. *)

val save : Sgns.t -> string -> unit
(** Raises [Sys_error] on I/O failure. *)

val load : string -> (Sgns.t, Lexkit.Diag.t) result
(** Read a model back; [Error] carries an [Io_error] (unreadable file)
    or a [Corrupt_model] diagnostic. Never raises. *)

val load_exn : string -> Sgns.t
(** Like {!load} but raises {!Lexkit.Diag.Error} on failure. *)

val load_mapped :
  string -> (Sgns.view * Lexkit.Storage.t, Lexkit.Diag.t) result
(** Zero-copy load: walk the v4 structure reading only headers, the
    vocabularies and the checksum trailer, then map the file and wire
    both embedding matrices to [Bigarray] views over its float runs —
    O(vocabulary), and the matrices are the bulk of a trained model.
    The mapped payloads are checksummed lazily, at the first inference
    entry point; a mismatch then raises {!Lexkit.Diag.Error} with kind
    [Corrupt_model].

    Environmental obstacles (misaligned payload, big-endian host, mmap
    failure) fall back to the v4 copy loader and report [Storage.Heap]
    with a note saying why. A file that is not a v4 model (an older
    version included) and structural damage are an [Error], as in
    {!load}. *)

val to_string : Sgns.t -> string
(** The version-4 binary image [save] writes. *)

val of_string : ?source:string -> string -> (Sgns.t, Lexkit.Diag.t) result
(** Parse a model held in memory — the fuzz suite's entry point. *)

(** {2 Training checkpoints}

    Mid-training state for out-of-core runs ({!Sgns.train_stream}):
    both flat matrices as raw float bits, the vocabularies, the
    config, the resume cursor and the shard layout. Self-checking like
    models (magic line, section framing, checksum trailer); a restored
    checkpoint resumes bit-exactly. *)

val checkpoint_save : string -> Sgns.ckpt -> unit
(** Atomic (temp file + rename): a SIGKILL mid-save leaves the
    previous checkpoint intact or the new one complete, never a torn
    file. Raises [Sys_error] on I/O failure. *)

val checkpoint_to_string : Sgns.ckpt -> string

val checkpoint_load : string -> (Sgns.ckpt, Lexkit.Diag.t) result
(** [Error] carries [Io_error] (unreadable) or [Corrupt_model]
    (truncated, mangled, bad cursor or shard layout, checksum
    mismatch). *)

val checkpoint_of_string :
  ?source:string -> string -> (Sgns.ckpt, Lexkit.Diag.t) result
