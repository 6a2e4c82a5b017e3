(* Version 4 (what [save] writes) is binary and mappable: the text
   magic line "pigeon-w2v-model 4\n", then length-prefixed sections
   (tag byte, payload length, payload — see {!Lexkit.Binio}):

     1 config        dim, epochs, negatives, raw LE float lr,
                     min_count, seed
     2 words         count, (string, count) in vocab-id order
   254 pad           0-7 zero bytes, emitted before each matrix
                     section so its float run (payload offset 16)
                     lands 8-byte aligned in the file
     3 word-vecs     rows, dim, raw LE floats row-major
     4 contexts      count, (string, count)
   254 pad
     5 context-vecs  rows, dim, raw floats
   255 end           section count (pads included), then per section
                     in file order: tag byte, FNV checksum of its
                     payload

   Per-section checksums let the mapped loader verify everything it
   copies eagerly and defer the (page-faulting) matrix checks until
   first use. Everything is emitted in vocab-id order and pads are
   deterministic, so the writer is a canonical form: save → load →
   save round-trips byte-identically.

   Version 4 is the only format that loads. Versions 1-3 (older text
   and binary layouts) are recognised by their magic line and rejected
   with a diagnostic that says to retrain. *)

let format_version = 4
let magic v = Printf.sprintf "pigeon-w2v-model %d" v

let pad_tag = 254

let to_string (m : Sgns.t) =
  let open Lexkit.Binio in
  let buf = Buffer.create (1 lsl 16) in
  let magic_len = String.length (magic format_version) + 1 in
  let sums = ref [] in
  let section tag fill =
    let payload = Buffer.create 1024 in
    fill payload;
    sums := (tag, checksum (Buffer.contents payload)) :: !sums;
    w_section buf ~tag payload
  in
  (* Pad so the next section's payload starts 8-byte aligned in the
     file (see the CRF writer): with [pos] the pad header's absolute
     offset, the next payload starts at pos + 9 + p + 9. The matrix
     float run sits at payload offset 16, which preserves 8-alignment. *)
  let align () =
    let pos = magic_len + Buffer.length buf in
    let p = (8 - ((pos + 18) mod 8)) mod 8 in
    section pad_tag (fun b ->
        for _ = 1 to p do
          w_u8 b 0
        done)
  in
  let c = m.Sgns.config in
  section 1 (fun b ->
      w_int b c.Sgns.dim;
      w_int b c.Sgns.epochs;
      w_int b c.Sgns.negatives;
      w_float b c.Sgns.learning_rate;
      w_int b c.Sgns.min_count;
      w_int b c.Sgns.seed);
  let vocab_section tag vocab =
    section tag (fun b ->
        let n = Vocab.size vocab in
        w_int b n;
        for i = 0 to n - 1 do
          w_string b (Vocab.word vocab i);
          w_int b (Vocab.count vocab i)
        done)
  in
  let matrix_section tag vecs =
    align ();
    section tag (fun b ->
        let rows = Array.length vecs in
        w_int b rows;
        w_int b (if rows = 0 then c.Sgns.dim else Array.length vecs.(0));
        Array.iter (fun row -> Array.iter (w_float b) row) vecs)
  in
  vocab_section 2 m.Sgns.words;
  matrix_section 3 m.Sgns.word_vecs;
  vocab_section 4 m.Sgns.contexts;
  matrix_section 5 m.Sgns.context_vecs;
  let out = Buffer.create (Buffer.length buf + 128) in
  Buffer.add_string out (magic format_version);
  Buffer.add_char out '\n';
  Buffer.add_buffer out buf;
  let entries = List.rev !sums in
  let trailer = Buffer.create 128 in
  w_int trailer (List.length entries);
  List.iter
    (fun (tag, sum) ->
      w_u8 trailer tag;
      w_int trailer sum)
    entries;
  w_section out ~tag:255 trailer;
  Buffer.contents out

let corrupt ?source fmt =
  Format.kasprintf
    (fun msg ->
      raise
        (Lexkit.Diag.Error
           (Lexkit.Diag.make ?file:source Lexkit.Diag.Corrupt_model msg)))
    fmt

let count_ what n =
  if n < 0 then Printf.ksprintf failwith "%s: negative count" what;
  n

(* ---------- shared section-payload parsers ---------- *)

let read_config r =
  let open Lexkit.Binio in
  let dim = r_int r "dim" in
  let epochs = r_int r "epochs" in
  let negatives = r_int r "negatives" in
  let learning_rate = r_float r "learning_rate" in
  let min_count = r_int r "min_count" in
  let seed = r_int r "seed" in
  if dim < 0 then failwith "negative vector dimension";
  { Sgns.dim; epochs; negatives; learning_rate; min_count; seed }

let read_vocab r what =
  let open Lexkit.Binio in
  let n = count_ what (r_int r what) in
  let items =
    List.init n (fun _ ->
        let w = r_string r what in
        (w, r_int r what))
  in
  Vocab.of_items items

(* Shared sanity checks for a matrix header: [avail] is the byte count
   actually present after the rows/dim words, so a hostile dim fails
   as a size mismatch, not as an uncatchable Out_of_memory. *)
let check_matrix_header ~what ~config ~vocab ~rows ~dim ~avail =
  if rows <> Vocab.size vocab then
    Printf.ksprintf failwith "%s: %d rows for a vocabulary of %d" what rows
      (Vocab.size vocab);
  if dim <> config.Sgns.dim then
    Printf.ksprintf failwith "%s: bad vector size (%d, expected %d)" what dim
      config.Sgns.dim;
  if
    (if rows = 0 then avail <> 0
     else dim > avail / 8 / rows || avail <> 8 * rows * dim)
  then
    Printf.ksprintf failwith "%s: %dx%d matrix does not match the file" what
      rows dim

(* The v4 copy parser — same result as the mapped loader, every
   payload on the heap. *)
let parse_v4 ?source body =
  match
    let open Lexkit.Binio in
    let r = reader body in
    let sums = ref [] in
    let sect tag what fill =
      let stop = r_section r ~tag ~what in
      let start = offset r in
      let v = fill stop in
      end_section r ~stop ~what;
      sums := (tag, checksum (String.sub body start (stop - start))) :: !sums;
      v
    in
    let pad what =
      sect pad_tag what (fun stop ->
          let n = stop - offset r in
          if n > 7 then
            Printf.ksprintf failwith "%s: oversized pad (%d bytes)" what n;
          r_skip r n what)
    in
    let config = sect 1 "config" (fun _ -> read_config r) in
    let matrix tag what vocab =
      pad (what ^ " pad");
      sect tag what (fun stop ->
          let rows = count_ what (r_int r what) in
          let dim = r_int r what in
          check_matrix_header ~what ~config ~vocab ~rows ~dim
            ~avail:(stop - offset r);
          Array.init rows (fun _ ->
              Array.init dim (fun _ -> r_float r what)))
    in
    let words = sect 2 "words" (fun _ -> read_vocab r "words") in
    let word_vecs = matrix 3 "word-vecs" words in
    let contexts = sect 4 "contexts" (fun _ -> read_vocab r "contexts") in
    let context_vecs = matrix 5 "context-vecs" contexts in
    let stop = r_section r ~tag:255 ~what:"end" in
    let entries = List.rev !sums in
    let n = r_int r "section count" in
    if n <> List.length entries then
      Printf.ksprintf failwith
        "section count mismatch: trailer says %d, file has %d" n
        (List.length entries);
    List.iter
      (fun (tag, sum) ->
        let t = r_u8 r "trailer tag" in
        let s = r_int r "trailer checksum" in
        if t <> tag then
          Printf.ksprintf failwith
            "trailer tag mismatch: file section %d recorded as %d" tag t;
        if s <> sum then
          Printf.ksprintf failwith
            "checksum mismatch in section %d: model data is corrupted" tag)
      entries;
    end_section r ~stop ~what:"end";
    if not (at_end r) then failwith "trailing data after the model";
    { Sgns.config; words; contexts; word_vecs; context_vecs }
  with
  | m -> m
  | exception (Failure msg | Invalid_argument msg) ->
      corrupt ?source "corrupt binary model: %s" msg

(* Only version 4 loads. An older magic line is named in the
   diagnostic, with the way out: retrain. *)
let check_magic ?source head =
  if not (String.equal head (magic format_version)) then
    match List.find_opt (fun v -> String.equal head (magic v)) [ 1; 2; 3 ] with
    | Some v ->
        corrupt ?source
          "pigeon-w2v-model version %d is no longer supported (this build \
           loads version %d only): retrain the model"
          v format_version
    | None -> corrupt ?source "bad magic (not a pigeon-w2v-model file)"

let parse_string ?source s =
  let nl = match String.index_opt s '\n' with Some i -> i | None -> String.length s in
  check_magic ?source (String.sub s 0 nl);
  parse_v4 ?source
    (if nl >= String.length s then ""
     else String.sub s (nl + 1) (String.length s - nl - 1))

let of_string ?source s =
  Lexkit.protect ?file:source (fun () -> parse_string ?source s)

(* Temp-file + rename: a save interrupted at any point (crash, kill,
   full disk) can never leave a truncated model where the next daemon
   start would trip over it. *)
let save m path = Lexkit.write_file_atomic path (to_string m)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      Result.Error (Lexkit.Diag.make ~file:path Lexkit.Diag.Io_error msg)
  | s -> of_string ~source:path s

let load_exn path =
  match load path with
  | Ok m -> m
  | Error d -> raise (Lexkit.Diag.Error d)

(* ---------- training checkpoints ----------

   "pigeon-w2v-checkpoint 1\n", then sections framed as in the model
   format but unpadded, with one whole-body checksum (checkpoints are
   transient — nothing maps them):

     1 header   config as in the model format, then the resume cursor:
                next_epoch, next_shard, jobs, and the shard layout
                (count, pairs-per-shard ints)
     2 words    count, (string, count) in vocab-id order
     3 w        rows, dim, raw LE floats (the flat training matrix)
     4 contexts 5 c    same pair for the context side
   255 end      section count, FNV checksum of the body

   Floats are raw bits, so restore → continue is bit-exact. *)

let ckpt_magic = "pigeon-w2v-checkpoint 1"
let ckpt_sections = 6

let checkpoint_to_string (ck : Sgns.ckpt) =
  let open Lexkit.Binio in
  let buf = Buffer.create (1 lsl 16) in
  let section tag fill =
    let payload = Buffer.create 1024 in
    fill payload;
    w_section buf ~tag payload
  in
  let c = ck.Sgns.ck_config in
  section 1 (fun b ->
      w_int b c.Sgns.dim;
      w_int b c.Sgns.epochs;
      w_int b c.Sgns.negatives;
      w_float b c.Sgns.learning_rate;
      w_int b c.Sgns.min_count;
      w_int b c.Sgns.seed;
      w_int b ck.Sgns.ck_next_epoch;
      w_int b ck.Sgns.ck_next_shard;
      w_int b ck.Sgns.ck_jobs;
      w_int b (Array.length ck.Sgns.ck_shard_sizes);
      Array.iter (w_int b) ck.Sgns.ck_shard_sizes);
  let vocab_section tag vocab =
    section tag (fun b ->
        let n = Vocab.size vocab in
        w_int b n;
        for i = 0 to n - 1 do
          w_string b (Vocab.word vocab i);
          w_int b (Vocab.count vocab i)
        done)
  in
  let matrix_section tag fa rows =
    section tag (fun b ->
        w_int b rows;
        w_int b c.Sgns.dim;
        Float.Array.iter (w_float b) fa)
  in
  vocab_section 2 ck.Sgns.ck_words;
  matrix_section 3 ck.Sgns.ck_w (Vocab.size ck.Sgns.ck_words);
  vocab_section 4 ck.Sgns.ck_contexts;
  matrix_section 5 ck.Sgns.ck_c (Vocab.size ck.Sgns.ck_contexts);
  let body = Buffer.contents buf in
  let out = Buffer.create (String.length body + 64) in
  Buffer.add_string out ckpt_magic;
  Buffer.add_char out '\n';
  Buffer.add_string out body;
  let trailer = Buffer.create 24 in
  w_int trailer ckpt_sections;
  w_int trailer (checksum body);
  w_section out ~tag:255 trailer;
  Buffer.contents out

let checkpoint_save path ck =
  Lexkit.write_file_atomic path (checkpoint_to_string ck)

let parse_checkpoint ?source body =
  match
    let open Lexkit.Binio in
    let r = reader body in
    let sect tag what fill =
      let stop = r_section r ~tag ~what in
      let v = fill stop in
      end_section r ~stop ~what;
      v
    in
    let config, next_epoch, next_shard, jobs, shard_sizes =
      sect 1 "header" (fun stop ->
          let config = read_config r in
          let next_epoch = r_int r "next_epoch" in
          let next_shard = r_int r "next_shard" in
          let jobs = r_int r "jobs" in
          let n_shards = count_ "shard count" (r_int r "shard count") in
          if n_shards > (stop - offset r) / 8 then
            failwith "shard layout does not fit the header";
          let shard_sizes =
            Array.init n_shards (fun _ -> r_int r "shard size")
          in
          Array.iter
            (fun s -> if s < 0 then failwith "negative shard size")
            shard_sizes;
          if n_shards = 0 then failwith "empty shard layout";
          if next_shard < 0 || next_shard >= n_shards then
            Printf.ksprintf failwith "shard cursor %d outside [0, %d)"
              next_shard n_shards;
          if next_epoch < 0 || next_epoch > config.Sgns.epochs then
            Printf.ksprintf failwith "epoch cursor %d outside [0, %d]"
              next_epoch config.Sgns.epochs;
          if jobs <= 0 then failwith "non-positive job count";
          (config, next_epoch, next_shard, jobs, shard_sizes))
    in
    let matrix tag what vocab =
      sect tag what (fun stop ->
          let rows = count_ what (r_int r what) in
          let dim = r_int r what in
          check_matrix_header ~what ~config ~vocab ~rows ~dim
            ~avail:(stop - offset r);
          Float.Array.init (rows * dim) (fun _ -> r_float r what))
    in
    let words = sect 2 "words" (fun _ -> read_vocab r "words") in
    let w = matrix 3 "w" words in
    let contexts = sect 4 "contexts" (fun _ -> read_vocab r "contexts") in
    let c = matrix 5 "c" contexts in
    let body_len = offset r in
    sect 255 "end" (fun _ ->
        let n = r_int r "section count" in
        if n <> ckpt_sections then
          Printf.ksprintf failwith
            "section count mismatch: trailer says %d, format has %d" n
            ckpt_sections;
        let sum = r_int r "checksum" in
        if sum <> checksum (String.sub body 0 body_len) then
          failwith "checksum mismatch: checkpoint data is corrupted");
    if not (at_end r) then failwith "trailing data after the checkpoint";
    {
      Sgns.ck_config = config;
      ck_words = words;
      ck_contexts = contexts;
      ck_w = w;
      ck_c = c;
      ck_next_epoch = next_epoch;
      ck_next_shard = next_shard;
      ck_shard_sizes = shard_sizes;
      ck_jobs = jobs;
    }
  with
  | ck -> ck
  | exception (Failure msg | Invalid_argument msg) ->
      corrupt ?source "corrupt checkpoint: %s" msg

let checkpoint_of_string ?source s =
  Lexkit.protect ?file:source (fun () ->
      let nl =
        match String.index_opt s '\n' with
        | Some i -> i
        | None -> String.length s
      in
      if not (String.equal (String.sub s 0 nl) ckpt_magic) then
        corrupt ?source "bad magic (not a pigeon-w2v-checkpoint file)";
      let body =
        if nl >= String.length s then ""
        else String.sub s (nl + 1) (String.length s - nl - 1)
      in
      parse_checkpoint ?source body)

let checkpoint_load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      Result.Error (Lexkit.Diag.make ~file:path Lexkit.Diag.Io_error msg)
  | s -> checkpoint_of_string ~source:path s

(* ---------- mapped loading ----------

   Mirrors {!Crf.Serialize.load_mapped}: the structure walk reads
   config, vocabularies and the checksum trailer through the channel,
   skips the matrix float runs with [seek_in], then maps the file once
   and wires each matrix to a [Sgns.Mat] view with a lazy verify
   closure. The matrices are the bulk of a trained model, so a load is
   O(vocabulary). *)

(* Environmental reasons not to map (misalignment, big-endian host,
   mmap failure) fall back to the v4 copy loader; structural damage
   stays a hard [Corrupt_model]. *)
exception Downgrade of string

type matrix_walk = {
  x_what : string;
  x_rows : int;
  x_dim : int;
  x_prefix : int;  (* checksum over the rows/dim words *)
  x_off : int;  (* absolute byte offset of the float run *)
  mutable x_expect : int;
}

type w2v_walk = Full of string * int | Msec of matrix_walk

let map_v4 path ic size =
  let open Lexkit.Binio in
  let ch_bytes n what =
    if n < 0 || n > size - pos_in ic then
      Printf.ksprintf failwith "truncated at byte %d (%s)" (pos_in ic) what;
    really_input_string ic n
  in
  let ch_u8 what = Char.code (ch_bytes 1 what).[0] in
  let ch_int what =
    let s = ch_bytes 8 what in
    let v = String.get_int64_le s 0 in
    let n = Int64.to_int v in
    if Int64.of_int n <> v then
      Printf.ksprintf failwith "integer out of range at byte %d (%s)"
        (pos_in ic - 8) what;
    n
  in
  let header what =
    let tag = ch_u8 what in
    let len = ch_int what in
    if len < 0 || len > size - pos_in ic then
      Printf.ksprintf failwith "truncated at byte %d (%s)" (pos_in ic) what;
    (tag, len)
  in
  let walk = ref [] in
  let small tag what parse =
    let t, len = header what in
    if t <> tag then
      Printf.ksprintf failwith "expected section %d (%s), found %d at byte %d"
        tag what t
        (pos_in ic - 9);
    let payload = ch_bytes len what in
    walk := (tag, Full (what, checksum payload)) :: !walk;
    let r = reader payload in
    let v = parse r in
    if not (at_end r) then
      Printf.ksprintf failwith
        "section %s length mismatch: payload ends at byte %d, header said %d"
        what (offset r) len;
    v
  in
  let pad what =
    let t, len = header what in
    if t <> pad_tag then
      Printf.ksprintf failwith "expected pad section before %s, found %d" what
        t;
    if len > 7 then
      Printf.ksprintf failwith "%s: oversized pad (%d bytes)" what len;
    let payload = ch_bytes len what in
    walk := (pad_tag, Full (what ^ " pad", checksum payload)) :: !walk
  in
  let msect tag what ~config ~vocab =
    pad what;
    let t, len = header what in
    if t <> tag then
      Printf.ksprintf failwith "expected section %d (%s), found %d at byte %d"
        tag what t
        (pos_in ic - 9);
    let head_bytes = ch_bytes 16 what in
    let word i = Int64.to_int (String.get_int64_le head_bytes (8 * i)) in
    let rows = count_ what (word 0) in
    let dim = word 1 in
    check_matrix_header ~what ~config ~vocab ~rows ~dim ~avail:(len - 16);
    let prefix = checksum_add checksum_seed head_bytes in
    let off = pos_in ic in
    if off mod 8 <> 0 then
      raise (Downgrade (Printf.sprintf "%s float payload misaligned" what));
    seek_in ic (off + (8 * rows * dim));
    let x =
      { x_what = what; x_rows = rows; x_dim = dim; x_prefix = prefix;
        x_off = off; x_expect = 0 }
    in
    walk := (tag, Msec x) :: !walk;
    x
  in
  let config = small 1 "config" read_config in
  let words = small 2 "words" (fun r -> read_vocab r "words") in
  let wm = msect 3 "word-vecs" ~config ~vocab:words in
  let contexts = small 4 "contexts" (fun r -> read_vocab r "contexts") in
  let cm = msect 5 "context-vecs" ~config ~vocab:contexts in
  let t, len = header "end" in
  if t <> 255 then
    Printf.ksprintf failwith "expected end section, found %d" t;
  let payload = ch_bytes len "end" in
  if pos_in ic <> size then failwith "trailing data after the model";
  let r = reader payload in
  let entries = List.rev !walk in
  let n = r_int r "section count" in
  if n <> List.length entries then
    Printf.ksprintf failwith
      "section count mismatch: trailer says %d, file has %d" n
      (List.length entries);
  List.iter
    (fun (tag, entry) ->
      let t = r_u8 r "trailer tag" in
      let sum = r_int r "trailer checksum" in
      if t <> tag then
        Printf.ksprintf failwith
          "trailer tag mismatch: file section %d recorded as %d" tag t;
      match entry with
      | Full (what, s) ->
          if s <> sum then
            Printf.ksprintf failwith
              "checksum mismatch in section %s: model data is corrupted" what
      | Msec x -> x.x_expect <- sum)
    entries;
  if not (at_end r) then failwith "trailing data in the end section";
  let mm =
    try Lexkit.Mmap.map_floats path
    with Unix.Unix_error (e, _, _) ->
      raise (Downgrade (Printf.sprintf "mmap failed: %s" (Unix.error_message e)))
  in
  let mat x =
    let n = x.x_rows * x.x_dim in
    let vals = Lexkit.Mmap.sub mm ~off_bytes:x.x_off ~len:n in
    let expect = x.x_expect and what = x.x_what and prefix = x.x_prefix in
    let verify () =
      let sum = Lexkit.Mmap.checksum_floats ~h:prefix vals ~off:0 ~len:n in
      if sum <> expect then
        raise
          (Lexkit.Diag.Error
             (Lexkit.Diag.make ~file:path Lexkit.Diag.Corrupt_model
                (Printf.sprintf
                   "checksum mismatch in section %s: mapped model data is corrupted"
                   what)))
    in
    Sgns.Mat.of_mapped ~vals ~rows:x.x_rows ~dim:x.x_dim ~verify
  in
  let view =
    {
      Sgns.v_config = config;
      v_words = words;
      v_contexts = contexts;
      v_word_vecs = mat wm;
      v_context_vecs = mat cm;
    }
  in
  (view, Lexkit.Mmap.size mm)

let load_mapped path =
  match open_in_bin path with
  | exception Sys_error msg ->
      Result.Error (Lexkit.Diag.make ~file:path Lexkit.Diag.Io_error msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          Lexkit.protect ~file:path (fun () ->
              let size = in_channel_length ic in
              (* the magic line and its newline; a file that stops
                 right before the newline fails the walk as truncated *)
              let head =
                really_input_string ic
                  (min size (String.length (magic format_version) + 1))
              in
              check_magic ~source:path
                (match String.index_opt head '\n' with
                | Some i -> String.sub head 0 i
                | None -> head);
              let copy reason =
                seek_in ic 0;
                ( Sgns.view_of (parse_string ~source:path (In_channel.input_all ic)),
                  Lexkit.Storage.Heap
                    { note = Some ("mapped load downgraded to a heap copy: " ^ reason) } )
              in
              if Sys.big_endian then copy "big-endian host"
              else
                match map_v4 path ic size with
                | view, bytes -> (view, Lexkit.Storage.Mapped { bytes })
                | exception Downgrade reason -> copy reason
                | exception (Failure msg | Invalid_argument msg) ->
                    corrupt ~source:path "corrupt binary model: %s" msg))
