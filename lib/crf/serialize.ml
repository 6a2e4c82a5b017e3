(* Version 4 (what [save] writes) is binary and mappable: the text
   magic line "pigeon-crf-model 4\n", then length-prefixed sections
   (tag byte, int64 payload length, payload — see {!Lexkit.Binio}):

     1 config      iterations, max_candidates, max_passes, seed,
                   averaged, trainer, init
     2 labels      count, strings in interned-id order (written once;
                   every other section refers to them by id)
     3 rels        count, strings in interned-id order
   254 pad         0-7 zero bytes, emitted before each weight section
                   so that section's float run lands 8-byte aligned in
                   the file — what lets a loader map it as a float64
                   view instead of copying it
     4 pw          count n, the n packed keys (key-sorted), then the n
                   raw LE float weights: keys and values in separate
                   runs, so building the lookup index touches no value
                   pages
     5 un          like pw
     6 bias        like pw
     7 cand-global count, (label id, count)
     8 cand-unary  count, (rel id, label id, count)
     9 cand-pw     count, (packed key, label id, count)
   255 end         section count (pads included), then per section in
                   file order: tag byte, FNV checksum of its payload

   Per-section checksums are what let the mapped loader verify
   everything it copies to the heap eagerly while deferring the
   (page-faulting) float-payload checks until first use.

   All lists are sorted and pads are deterministic, so the writer is a
   canonical form: save → load → save round-trips byte-identically.

   Version 4 is the only format that loads. Versions 1-3 (older text
   and binary layouts) are recognised by their magic line and rejected
   with a diagnostic that says to retrain. *)

let format_version = 4
let magic v = Printf.sprintf "pigeon-crf-model %d" v

let trainer_name = function
  | Fast.Structured -> "structured"
  | Fast.Pseudolikelihood -> "pl"
  | Fast.Pl_gradient -> "pl-gradient"
  | Fast.Mixed -> "mixed"

let trainer_of_name = function
  | "structured" -> Some Fast.Structured
  | "pl" -> Some Fast.Pseudolikelihood
  | "pl-gradient" -> Some Fast.Pl_gradient
  | "mixed" -> Some Fast.Mixed
  | _ -> None

let init_name = function
  | Fast.No_init -> "none"
  | Fast.Log_counts -> "log-counts"
  | Fast.Naive_bayes -> "naive-bayes"

let init_of_name = function
  | "none" -> Some Fast.No_init
  | "log-counts" -> Some Fast.Log_counts
  | "naive-bayes" -> Some Fast.Naive_bayes
  | _ -> None

let pad_tag = 254

let to_string (model : Train.model) =
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
  (* Emit a pad section sized so the *next* section's payload starts
     8-byte aligned in the file: with [pos] the absolute offset of the
     pad's own header, the next payload starts at pos + 9 + p + 9. *)
  let align () =
    let pos = magic_len + Buffer.length buf in
    let p = (8 - ((pos + 18) mod 8)) mod 8 in
    section pad_tag (fun b ->
        for _ = 1 to p do
          w_u8 b 0
        done)
  in
  let c = model.Train.config in
  let inf = c.Train.inference in
  section 1 (fun b ->
      w_int b c.Train.iterations;
      w_int b inf.Inference.max_candidates;
      w_int b inf.Inference.max_passes;
      w_int b c.Train.seed;
      w_u8 b (if c.Train.averaged then 1 else 0);
      w_string b (trainer_name c.Train.trainer);
      w_string b (init_name c.Train.init));
  let d = Fast.dump model.Train.fast in
  let strings tag ss =
    section tag (fun b ->
        w_int b (List.length ss);
        List.iter (w_string b) ss)
  in
  strings 2 d.Fast.d_labels;
  strings 3 d.Fast.d_rels;
  let weights tag ws =
    (* [Fast.dump] emits each table in key order, so the section is
       canonical as-is; keys first, then the value run the mapped
       loader reads in place. *)
    align ();
    section tag (fun b ->
        w_int b (List.length ws);
        List.iter (fun (k, _) -> w_int b k) ws;
        List.iter (fun (_, w) -> w_float b w) ws)
  in
  weights 4 d.Fast.d_pw;
  weights 5 d.Fast.d_un;
  weights 6 d.Fast.d_bias;
  let global, unary, pairwise = Candidates.dump_ids (Train.candidates model) in
  section 7 (fun b ->
      w_int b (List.length global);
      List.iter
        (fun (l, n) ->
          w_int b l;
          w_int b n)
        global);
  section 8 (fun b ->
      w_int b (List.length unary);
      List.iter
        (fun (r, l, n) ->
          w_int b r;
          w_int b l;
          w_int b n)
        unary);
  section 9 (fun b ->
      w_int b (List.length pairwise);
      List.iter
        (fun (k, l, n) ->
          w_int b k;
          w_int b l;
          w_int b n)
        pairwise);
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

(* ---------- shared section-payload parsers ----------

   Each takes a [Binio.reader] positioned at the start of a section's
   payload; malformed data raises [Failure], which every caller
   converts to a [Corrupt_model] diagnostic. Shared between the copy
   parser and the mapped loader. *)

let count_ what n =
  if n < 0 then Printf.ksprintf failwith "%s: negative count" what;
  n

let read_config r =
  let open Lexkit.Binio in
  let iterations = r_int r "iterations" in
  let max_candidates = r_int r "max_candidates" in
  let max_passes = r_int r "max_passes" in
  let seed = r_int r "seed" in
  let averaged = r_u8 r "averaged" <> 0 in
  let trainer =
    let s = r_string r "trainer" in
    match trainer_of_name s with
    | Some t -> t
    | None -> Printf.ksprintf failwith "unknown trainer %S" s
  in
  let init =
    let s = r_string r "init" in
    match init_of_name s with
    | Some i -> i
    | None -> Printf.ksprintf failwith "unknown init %S" s
  in
  {
    Train.iterations;
    inference =
      {
        Inference.max_candidates;
        max_passes;
        seed = Inference.default_config.Inference.seed;
      };
    seed;
    averaged;
    trainer;
    init;
    engine = Train.default_config.Train.engine;
  }

let read_strings r what =
  let open Lexkit.Binio in
  let n = count_ what (r_int r what) in
  List.init n (fun _ -> r_string r what)

let read_cand_global r =
  let open Lexkit.Binio in
  let n = count_ "cand-global" (r_int r "cand-global") in
  List.init n (fun _ ->
      let l = r_int r "cand-global" in
      (l, r_int r "cand-global"))

let read_cand_unary r =
  let open Lexkit.Binio in
  let n = count_ "cand-unary" (r_int r "cand-unary") in
  List.init n (fun _ ->
      let rel = r_int r "cand-unary" in
      let l = r_int r "cand-unary" in
      (rel, l, r_int r "cand-unary"))

let read_cand_pw r =
  let open Lexkit.Binio in
  let n = count_ "cand-pw" (r_int r "cand-pw") in
  List.init n (fun _ ->
      let k = r_int r "cand-pw" in
      let l = r_int r "cand-pw" in
      (k, l, r_int r "cand-pw"))

(* [ids] is deferred: the mapped loader parses (and checksums) the
   candidate sections only when inference first needs them. Structural
   damage surfacing inside the lazy body still reads as corruption,
   never a bare [Failure]. *)
let assemble ?source ~config ~fast ~ids () =
  let candidates =
    lazy
      (match
         let global, unary, pairwise = ids () in
         Candidates.of_ids ~symbols:(Fast.symbols fast) ~global ~unary
           ~pairwise
       with
      | c -> c
      | exception (Failure msg | Invalid_argument msg) ->
          raise
            (Lexkit.Diag.Error
               (Lexkit.Diag.make ?file:source Lexkit.Diag.Corrupt_model msg)))
  in
  { Train.weights = lazy (Fast.export_weights fast); candidates; config; fast }

let corrupt ?source fmt =
  Format.kasprintf
    (fun msg ->
      raise
        (Lexkit.Diag.Error
           (Lexkit.Diag.make ?file:source Lexkit.Diag.Corrupt_model msg)))
    fmt

(* The v4 copy parser: same result as the mapped loader, but every
   payload lands on the heap — the path taken by [load], by big-endian
   hosts, and by tools that mutate the model after loading. *)
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
    let labels = sect 2 "labels" (fun _ -> read_strings r "labels") in
    let rels = sect 3 "rels" (fun _ -> read_strings r "rels") in
    let weights tag what =
      pad (what ^ " pad");
      sect tag what (fun stop ->
          let n = count_ what (r_int r what) in
          let rem = stop - offset r in
          if rem / 16 <> n || rem mod 16 <> 0 then
            Printf.ksprintf failwith "%s: length mismatch for %d entries" what n;
          let keys = Array.init n (fun _ -> r_int r what) in
          List.init n (fun i -> (keys.(i), r_float r what)))
    in
    let pw = weights 4 "pw" in
    let un = weights 5 "un" in
    let bias = weights 6 "bias" in
    let global = sect 7 "cand-global" (fun _ -> read_cand_global r) in
    let unary = sect 8 "cand-unary" (fun _ -> read_cand_unary r) in
    let pairwise = sect 9 "cand-pw" (fun _ -> read_cand_pw r) in
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
    let fast =
      Fast.restore
        { Fast.d_labels = labels; d_rels = rels; d_pw = pw; d_un = un; d_bias = bias }
    in
    assemble ?source ~config ~fast ~ids:(fun () -> (global, unary, pairwise)) ()
  with
  | model -> model
  | exception (Failure msg | Invalid_argument msg) ->
      corrupt ?source "corrupt binary model: %s" msg

(* Only version 4 loads. An older magic line is named in the
   diagnostic, with the way out: retrain. *)
let check_magic ?source head =
  if not (String.equal head (magic format_version)) then
    match List.find_opt (fun v -> String.equal head (magic v)) [ 1; 2; 3 ] with
    | Some v ->
        corrupt ?source
          "pigeon-crf-model version %d is no longer supported (this build \
           loads version %d only): retrain the model"
          v format_version
    | None -> corrupt ?source "bad magic (not a pigeon-crf-model file)"

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
let save model path = Lexkit.write_file_atomic path (to_string model)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      Result.Error (Lexkit.Diag.make ~file:path Lexkit.Diag.Io_error msg)
  | s -> of_string ~source:path s

let load_exn path =
  match load path with
  | Ok model -> model
  | Error d -> raise (Lexkit.Diag.Error d)

(* ---------- training checkpoints ----------

   "pigeon-crf-checkpoint 1\n", then sections framed as in the model
   format but unpadded, with one whole-body checksum in the end trailer
   (checkpoints are transient scratch state — nothing maps them, so
   the model's alignment machinery would buy nothing):

     1 header    model config (as in the model's config section), then
                 the resume cursor: next_it, next_shard, n_shards,
                 jobs, and the averaged-perceptron step clock
     2 labels    3 rels     as in the model format
     4 pw  5 un  6 bias     count, (packed key, raw float) pairs
     7 pw_u  8 un_u  9 bias_u   the averaging accumulators, same shape
   255 end       section count, FNV checksum of the body

   Floats are raw IEEE-754 bits, so restore → continue is bit-exact.
   [n_shards] is stored to reject resuming against a re-sharded
   corpus; [jobs] because bit-identity only holds for a fixed job
   count — the caller decides whether a mismatch is an error. *)

let ckpt_magic = "pigeon-crf-checkpoint 1"
let ckpt_sections = 10

type checkpoint = {
  ck_config : Train.config;
  ck_next_it : int;
  ck_next_shard : int;
  ck_n_shards : int;
  ck_jobs : int;
  ck_fast : Fast.model;
}

let checkpoint_to_string ~config ~next_it ~next_shard ~n_shards ~jobs fast =
  let open Lexkit.Binio in
  let buf = Buffer.create (1 lsl 16) in
  let section tag fill =
    let payload = Buffer.create 1024 in
    fill payload;
    w_section buf ~tag payload
  in
  let f = Fast.dump_full fast in
  let c = config in
  let inf = c.Train.inference in
  section 1 (fun b ->
      w_int b c.Train.iterations;
      w_int b inf.Inference.max_candidates;
      w_int b inf.Inference.max_passes;
      w_int b c.Train.seed;
      w_u8 b (if c.Train.averaged then 1 else 0);
      w_string b (trainer_name c.Train.trainer);
      w_string b (init_name c.Train.init);
      w_int b next_it;
      w_int b next_shard;
      w_int b n_shards;
      w_int b jobs;
      w_int b f.Fast.f_steps);
  let d = f.Fast.f_weights in
  let strings tag ss =
    section tag (fun b ->
        w_int b (List.length ss);
        List.iter (w_string b) ss)
  in
  strings 2 d.Fast.d_labels;
  strings 3 d.Fast.d_rels;
  let weights tag ws =
    section tag (fun b ->
        w_int b (List.length ws);
        List.iter
          (fun (k, w) ->
            w_int b k;
            w_float b w)
          ws)
  in
  weights 4 d.Fast.d_pw;
  weights 5 d.Fast.d_un;
  weights 6 d.Fast.d_bias;
  weights 7 f.Fast.f_pw_u;
  weights 8 f.Fast.f_un_u;
  weights 9 f.Fast.f_bias_u;
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

let checkpoint_save path ~config ~next_it ~next_shard ~n_shards ~jobs fast =
  Lexkit.write_file_atomic path
    (checkpoint_to_string ~config ~next_it ~next_shard ~n_shards ~jobs fast)

let parse_checkpoint ?source body =
  match
    let open Lexkit.Binio in
    let r = reader body in
    let sect tag what fill =
      let stop = r_section r ~tag ~what in
      let v = fill () in
      end_section r ~stop ~what;
      v
    in
    let config, next_it, next_shard, n_shards, jobs, steps =
      sect 1 "header" (fun () ->
          let config = read_config r in
          let next_it = r_int r "next_it" in
          let next_shard = r_int r "next_shard" in
          let n_shards = r_int r "n_shards" in
          let jobs = r_int r "jobs" in
          let steps = r_int r "steps" in
          if n_shards <= 0 then failwith "non-positive shard count";
          if next_shard < 0 || next_shard >= n_shards then
            Printf.ksprintf failwith "shard cursor %d outside [0, %d)"
              next_shard n_shards;
          if next_it < 0 || next_it > config.Train.iterations then
            Printf.ksprintf failwith "iteration cursor %d outside [0, %d]"
              next_it config.Train.iterations;
          if jobs <= 0 then failwith "non-positive job count";
          (config, next_it, next_shard, n_shards, jobs, steps))
    in
    let labels = sect 2 "labels" (fun () -> read_strings r "labels") in
    let rels = sect 3 "rels" (fun () -> read_strings r "rels") in
    let weights tag what =
      sect tag what (fun () ->
          let n = count_ what (r_int r what) in
          List.init n (fun _ ->
              let k = r_int r what in
              let w = r_float r what in
              (k, w)))
    in
    let pw = weights 4 "pw" in
    let un = weights 5 "un" in
    let bias = weights 6 "bias" in
    let pw_u = weights 7 "pw_u" in
    let un_u = weights 8 "un_u" in
    let bias_u = weights 9 "bias_u" in
    let body_len = offset r in
    sect 255 "end" (fun () ->
        let n = r_int r "section count" in
        if n <> ckpt_sections then
          Printf.ksprintf failwith
            "section count mismatch: trailer says %d, format has %d" n
            ckpt_sections;
        let sum = r_int r "checksum" in
        if sum <> checksum (String.sub body 0 body_len) then
          failwith "checksum mismatch: checkpoint data is corrupted");
    if not (at_end r) then failwith "trailing data after the checkpoint";
    let fast =
      Fast.restore_full
        {
          Fast.f_weights =
            { Fast.d_labels = labels; d_rels = rels; d_pw = pw; d_un = un;
              d_bias = bias };
          f_pw_u = pw_u;
          f_un_u = un_u;
          f_bias_u = bias_u;
          f_steps = steps;
        }
    in
    {
      ck_config = config;
      ck_next_it = next_it;
      ck_next_shard = next_shard;
      ck_n_shards = n_shards;
      ck_jobs = jobs;
      ck_fast = fast;
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
        corrupt ?source "bad magic (not a pigeon-crf-checkpoint file)";
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

   The structure walk below reads everything *except* the weight-value
   runs through the channel: headers, config, symbol tables, candidate
   ids, the weight keys (which become the heap probe index) and the
   checksum trailer. The value runs are skipped with [seek_in] — never
   read — and after the walk the file is mapped once and each table
   gets a [Bigarray] slice plus a verify closure that finishes the
   section checksum over the map on first use. So a load costs
   O(everything-but-the-floats), and the floats are the bulk of a
   trained model. *)

(* Environmental reasons not to map (misalignment, big-endian host,
   mmap failure) fall back to the v4 copy loader; structural damage
   stays a hard [Corrupt_model]. *)
exception Downgrade of string

type weight_walk = {
  w_what : string;
  w_keys : int array;
  w_prefix : int Lazy.t;
      (* checksum over count+keys, to continue on the map; lazy so the
         load pays no checksum cost for the key run either — it folds
         in with the deferred value-run check on first use *)
  w_off : int;  (* absolute byte offset of the value run *)
  w_n : int;
  mutable w_expect : int;  (* full-section checksum from the trailer *)
}

(* A candidate section held as raw bytes: checksummed and parsed only
   when inference first needs candidates (they are ~half the non-float
   payload of a trained model). *)
type lazy_walk = {
  l_what : string;
  l_payload : string;
  mutable l_expect : int;
}

type section_walk =
  | Full of string * int  (* what, payload checksum *)
  | Wsec of weight_walk
  | Lsec of lazy_walk
(* the walk records (file tag, entry) in file order *)

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
  let wsect tag what =
    pad what;
    let t, len = header what in
    if t <> tag then
      Printf.ksprintf failwith "expected section %d (%s), found %d at byte %d"
        tag what t
        (pos_in ic - 9);
    let count_bytes = ch_bytes 8 what in
    let n = count_ what (Int64.to_int (String.get_int64_le count_bytes 0)) in
    if (len - 8) / 16 <> n || (len - 8) mod 16 <> 0 then
      Printf.ksprintf failwith "%s: length mismatch for %d entries" what n;
    let keys_bytes = ch_bytes (8 * n) what in
    let keys =
      Array.init n (fun i ->
          let v = String.get_int64_le keys_bytes (8 * i) in
          let k = Int64.to_int v in
          if Int64.of_int k <> v then
            Printf.ksprintf failwith "integer out of range (%s key)" what;
          k)
    in
    let prefix =
      lazy (checksum_add (checksum_add checksum_seed count_bytes) keys_bytes)
    in
    let off = pos_in ic in
    if off mod 8 <> 0 then
      raise (Downgrade (Printf.sprintf "%s float payload misaligned" what));
    seek_in ic (off + (8 * n));
    let w =
      { w_what = what; w_keys = keys; w_prefix = prefix; w_off = off; w_n = n;
        w_expect = 0 }
    in
    walk := (tag, Wsec w) :: !walk;
    w
  in
  let deferred tag what =
    let t, len = header what in
    if t <> tag then
      Printf.ksprintf failwith "expected section %d (%s), found %d at byte %d"
        tag what t
        (pos_in ic - 9);
    let l = { l_what = what; l_payload = ch_bytes len what; l_expect = 0 } in
    walk := (tag, Lsec l) :: !walk;
    l
  in
  let config = small 1 "config" read_config in
  let labels = small 2 "labels" (fun r -> read_strings r "labels") in
  let rels = small 3 "rels" (fun r -> read_strings r "rels") in
  let pw = wsect 4 "pw" in
  let un = wsect 5 "un" in
  let bias = wsect 6 "bias" in
  let global = deferred 7 "cand-global" in
  let unary = deferred 8 "cand-unary" in
  let pairwise = deferred 9 "cand-pw" in
  (* trailer: match tags and checksums against the walk, eagerly for
     copied sections, recorded for the mapped value runs *)
  let t, len = header "end" in
  if t <> 255 then
    Printf.ksprintf failwith "expected end section, found %d" t;
  let payload = ch_bytes len "end" in
  if pos_in ic <> size then failwith "trailing data after the model";
  let r = reader payload in
  let entries = List.rev !walk in
  let n = r_int r "section count" in
  if n <> List.length entries then
    Printf.ksprintf failwith "section count mismatch: trailer says %d, file has %d"
      n (List.length entries);
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
      | Wsec w -> w.w_expect <- sum
      | Lsec l -> l.l_expect <- sum)
    entries;
  if not (at_end r) then failwith "trailing data in the end section";
  let mm =
    try Lexkit.Mmap.map_floats path
    with Unix.Unix_error (e, _, _) ->
      raise (Downgrade (Printf.sprintf "mmap failed: %s" (Unix.error_message e)))
  in
  let tbl w =
    let vals = Lexkit.Mmap.sub mm ~off_bytes:w.w_off ~len:w.w_n in
    let expect = w.w_expect in
    let what = w.w_what and n = w.w_n in
    let prefix = w.w_prefix in
    let verify () =
      let sum =
        Lexkit.Mmap.checksum_floats ~h:(Lazy.force prefix) vals ~off:0 ~len:n
      in
      if sum <> expect then
        raise
          (Lexkit.Diag.Error
             (Lexkit.Diag.make ~file:path Lexkit.Diag.Corrupt_model
                (Printf.sprintf
                   "checksum mismatch in section %s: mapped model data is corrupted"
                   what)))
    in
    { Fast.mt_keys = w.w_keys; mt_vals = vals; mt_verify = verify }
  in
  let fast =
    Fast.restore_mapped ~labels ~rels ~pw:(tbl pw) ~un:(tbl un) ~bias:(tbl bias)
  in
  (* checksummed + parsed on first inference, inside [assemble]'s
     corruption-containment wrapper *)
  let parse_cands l parse =
    if checksum l.l_payload <> l.l_expect then
      Printf.ksprintf failwith
        "checksum mismatch in section %s: model data is corrupted" l.l_what;
    let r = reader l.l_payload in
    let v = parse r in
    if not (at_end r) then
      Printf.ksprintf failwith
        "section %s length mismatch: payload ends at byte %d, header said %d"
        l.l_what (offset r)
        (String.length l.l_payload);
    v
  in
  let ids () =
    ( parse_cands global read_cand_global,
      parse_cands unary read_cand_unary,
      parse_cands pairwise read_cand_pw )
  in
  (assemble ~source:path ~config ~fast ~ids (), Lexkit.Mmap.size mm)

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
                ( parse_string ~source:path (In_channel.input_all ic),
                  Lexkit.Storage.Heap
                    { note = Some ("mapped load downgraded to a heap copy: " ^ reason) } )
              in
              if Sys.big_endian then copy "big-endian host"
              else
                match map_v4 path ic size with
                | model, bytes -> (model, Lexkit.Storage.Mapped { bytes })
                | exception Downgrade reason -> copy reason
                | exception (Failure msg | Invalid_argument msg) ->
                    corrupt ~source:path "corrupt binary model: %s" msg))
