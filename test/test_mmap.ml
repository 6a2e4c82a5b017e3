(* The zero-copy (mmap) model loading gate.

   Two properties carry the whole feature:
   - byte-identity: a mapped model predicts byte-identical to the heap
     copy of the same file, sequentially and over a pool, and writes
     back the very same file;
   - containment: every way a mapped file can be damaged — truncation,
     bit flips anywhere, hostile section lengths, a file shorter than
     its header — surfaces as a [Corrupt_model] diagnostic (at load or
     at first use), never a crash, a wild read, or an Out_of_memory. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_node id gold kind = { Crf.Graph.id; gold; kind }

let graphs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  List.init n (fun _ ->
      if Random.State.bool rng then
        Crf.Graph.make
          ~nodes:
            [
              mk_node 0 (pick [ "done"; "stop" ]) `Unknown;
              mk_node 1 "hello, world %20" `Known;
            ]
          ~factors:
            [
              Crf.Graph.pairwise ~a:0 ~b:1
                ~rel:"SymbolRef\xe2\x86\x91While\xe2\x86\x93True";
              Crf.Graph.unary ~n:0 ~rel:"loop guard";
            ]
      else
        Crf.Graph.make
          ~nodes:
            [
              mk_node 0 (pick [ "count"; "total" ]) `Unknown;
              mk_node 1 "0" `Known;
            ]
          ~factors:
            [
              Crf.Graph.pairwise ~a:0 ~b:1 ~rel:"Assign=\xe2\x86\x93Number";
              Crf.Graph.unary ~n:0 ~rel:"incr\ttab";
            ])

let train () = Crf.Train.train (graphs ~n:200 ~seed:5)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_temp_file ext f =
  let path = Filename.temp_file "pigeon" ext in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let load_mapped_exn path =
  match Crf.Serialize.load_mapped path with
  | Ok ms -> ms
  | Error d -> Alcotest.fail (Lexkit.Diag.to_string d)

(* ---------- byte-identity ---------- *)

let test_crf_mapped_is_mapped () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let mapped, storage = load_mapped_exn path in
      check_bool "storage reports mapped" true
        (match storage with Lexkit.Storage.Mapped _ -> true | _ -> false);
      check_int "mapped bytes = file size"
        (String.length (read_file path))
        (Lexkit.Storage.mapped_bytes storage);
      check_bool "weight tables are mapped" true
        (Crf.Fast.storage mapped.Crf.Train.fast = `Mapped))

let test_crf_byte_identical_predictions () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let heap = Crf.Serialize.load_exn path in
      let mapped, _ = load_mapped_exn path in
      let test_graphs = graphs ~n:80 ~seed:6 in
      (* Sequential: graph by graph. *)
      List.iter
        (fun g ->
          check_bool "identical predictions (jobs=1)" true
            (Crf.Train.predict heap g = Crf.Train.predict mapped g))
        test_graphs;
      (* Pooled: the whole batch across domains. *)
      let pool = Parallel.create ~jobs:2 () in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      check_bool "identical predictions (pooled)" true
        (Crf.Train.predict_batch ~pool heap test_graphs
        = Crf.Train.predict_batch ~pool mapped test_graphs))

let test_crf_save_map_save_bit_exact () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let bytes = read_file path in
      let mapped, _ = load_mapped_exn path in
      check_bool "save(map(save)) is byte-identical" true
        (String.equal bytes (Crf.Serialize.to_string mapped)))

let test_itbl_mapped_read_only () =
  let keys = [| 1; 5; 9 |] in
  let vals =
    Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout
      [| 0.5; -1.25; 3.75 |]
  in
  let t = Crf.Itbl.of_sorted_mapped ~keys ~vals ~verify:(fun () -> ()) in
  check_bool "get finds mapped entries" true
    (Crf.Itbl.get t 5 = -1.25 && Crf.Itbl.get t 2 = 0.);
  check_bool "add on a mapped table is refused" true
    (match Crf.Itbl.add t 5 1. with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ---------- corruption containment ---------- *)

(* A damaged file must answer with [Corrupt_model] — either at load
   (structure, eager checksums) or at first use (the lazy mapped float
   checksums) — and never anything else. *)
let contained path =
  match Crf.Serialize.load_mapped path with
  | Error d -> d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model
  | Ok (m, _) -> (
      let g = List.hd (graphs ~n:1 ~seed:8) in
      match Crf.Train.predict m g with
      | _ -> false (* damage slipped through *)
      | exception Lexkit.Diag.Error d ->
          d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model)

let test_crf_mapped_truncations () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let full = read_file path in
      let n = String.length full in
      (* Cuts everywhere: mid-magic, mid-header, mid-payload, mid-float
         run, mid-trailer. *)
      List.iter
        (fun cut ->
          write_file path (String.sub full 0 cut);
          check_bool
            (Printf.sprintf "truncation at %d/%d bytes is contained" cut n)
            true (contained path))
        [ 5; 19; 40; n / 4; n / 2; (3 * n) / 4; n - 40; n - 1 ])

let test_crf_mapped_bit_flips () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let full = read_file path in
      let n = String.length full in
      (* A flip at every stride-th byte: magic, symbol tables, weight
         keys, float runs, candidate sections, pads, trailer — all of
         it must be caught by framing or a checksum. *)
      let positions = List.init 41 (fun i -> i * (n - 1) / 40) in
      List.iter
        (fun i ->
          let b = Bytes.of_string full in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          write_file path (Bytes.to_string b);
          check_bool
            (Printf.sprintf "bit flip at byte %d/%d is contained" i n)
            true (contained path))
        positions)

let test_crf_mapped_hostile_lengths () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let full = read_file path in
      (* The first section header's length field lives at bytes 20-27
         (magic 19, tag 1). Hostile values must fail as framing errors,
         not as allocations or wild reads. *)
      List.iter
        (fun (le_bytes : string) ->
          let b = Bytes.of_string full in
          Bytes.blit_string le_bytes 0 b 20 8;
          write_file path (Bytes.to_string b);
          check_bool "hostile section length is contained" true
            (contained path))
        [
          "\xff\xff\xff\xff\xff\xff\xff\x7f" (* max_int64 *);
          "\xff\xff\xff\xff\xff\xff\xff\xff" (* -1 *);
          "\x00\x00\x00\x00\x00\x00\x00\x40" (* 2^62 *);
        ])

let test_crf_mapped_short_files () =
  with_temp_file ".crf" (fun path ->
      List.iter
        (fun content ->
          write_file path content;
          check_bool "short/garbage file is contained" true (contained path))
        [
          "";
          "pig";
          "pigeon-crf-model 4";
          "pigeon-crf-model 4\n";
          "pigeon-crf-model 4\n\x01";
          String.make 64 '\x00';
        ])

(* ---------- word2vec ---------- *)

let sgns_pairs ~n ~seed =
  let rng = Random.State.make [| seed |] in
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  List.init n (fun _ ->
      if Random.State.bool rng then
        (pick [ "done"; "finished" ], pick [ "loop ctx"; "assign%true" ])
      else (pick [ "count"; "total" ], pick [ "init zero"; "incr" ]))

let train_w2v () =
  Word2vec.Sgns.train
    ~config:{ Word2vec.Sgns.default_config with Word2vec.Sgns.epochs = 2 }
    (sgns_pairs ~n:300 ~seed:9)

let w2v_load_mapped_exn path =
  match Word2vec.Serialize.load_mapped path with
  | Ok vs -> vs
  | Error d -> Alcotest.fail (Lexkit.Diag.to_string d)

let test_w2v_mapped_byte_identity () =
  let model = train_w2v () in
  with_temp_file ".w2v" (fun path ->
      Word2vec.Serialize.save model path;
      let view, storage = w2v_load_mapped_exn path in
      check_bool "storage reports mapped" true
        (match storage with Lexkit.Storage.Mapped _ -> true | _ -> false);
      check_bool "view reports mapped" true
        (Word2vec.Sgns.view_storage view = `Mapped);
      List.iter
        (fun ctxs ->
          check_bool "identical predictions" true
            (Word2vec.Sgns.predict model ctxs
            = Word2vec.Sgns.predict_view view ctxs))
        [ [ "loop ctx" ]; [ "incr"; "init zero" ]; [ "assign%true" ] ];
      check_bool "identical neighbors" true
        (Word2vec.Sgns.most_similar model "done" ~k:3
        = Word2vec.Sgns.most_similar_view view "done" ~k:3);
      (* save → map → materialize → save is bit-exact. *)
      check_bool "save(map(save)) is byte-identical" true
        (String.equal (read_file path)
           (Word2vec.Serialize.to_string (Word2vec.Sgns.heap_of_view view))))

let w2v_contained path =
  match Word2vec.Serialize.load_mapped path with
  | Error d -> d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model
  | Ok (view, _) -> (
      match Word2vec.Sgns.predict_view view [ "loop ctx" ] with
      | _ -> false
      | exception Lexkit.Diag.Error d ->
          d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model)

let test_w2v_mapped_corruption () =
  let model = train_w2v () in
  with_temp_file ".w2v" (fun path ->
      Word2vec.Serialize.save model path;
      let full = read_file path in
      let n = String.length full in
      List.iter
        (fun cut ->
          write_file path (String.sub full 0 cut);
          check_bool
            (Printf.sprintf "truncation at %d/%d is contained" cut n)
            true (w2v_contained path))
        [ 19; n / 3; n / 2; n - 1 ];
      List.iter
        (fun i ->
          let b = Bytes.of_string full in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          write_file path (Bytes.to_string b);
          check_bool
            (Printf.sprintf "bit flip at byte %d/%d is contained" i n)
            true (w2v_contained path))
        (List.init 21 (fun i -> i * (n - 1) / 20)))

(* ---------- older format versions ---------- *)

(* A v4 image with its magic line rewritten to an older version: what
   a file from before v4 presents to the loaders. *)
let with_version v image =
  let nl = String.index image '\n' in
  let kind = String.sub image 0 (String.rindex_from image nl ' ') in
  Printf.sprintf "%s %d%s" kind v (String.sub image nl (String.length image - nl))

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* Versions 1-3 no longer load: [load], [of_string] and [load_mapped]
   all answer [Corrupt_model] naming the version and saying to retrain
   — never a model, and never a heap-copy downgrade. *)
let check_old_versions_rejected ~load ~of_string ~load_mapped path image =
  List.iter
    (fun v ->
      let old = with_version v image in
      write_file path old;
      let expect what = function
        | Ok _ -> Alcotest.failf "%s accepted a version-%d file" what v
        | Error d ->
            check_bool
              (Printf.sprintf "%s names version %d and says to retrain" what v)
              true
              (d.Lexkit.Diag.kind = Lexkit.Diag.Corrupt_model
              && contains d.Lexkit.Diag.msg (Printf.sprintf "version %d" v)
              && contains d.Lexkit.Diag.msg "retrain")
      in
      expect "load" (load path);
      expect "of_string" (of_string old);
      expect "load_mapped" (load_mapped path))
    [ 1; 2; 3 ]

let test_crf_old_versions_rejected () =
  let model = train () in
  with_temp_file ".crf" (fun path ->
      check_old_versions_rejected ~load:Crf.Serialize.load
        ~of_string:(fun s -> Crf.Serialize.of_string s)
        ~load_mapped:Crf.Serialize.load_mapped path
        (Crf.Serialize.to_string model))

let test_w2v_old_versions_rejected () =
  let model = train_w2v () in
  with_temp_file ".w2v" (fun path ->
      check_old_versions_rejected ~load:Word2vec.Serialize.load
        ~of_string:(fun s -> Word2vec.Serialize.of_string s)
        ~load_mapped:Word2vec.Serialize.load_mapped path
        (Word2vec.Serialize.to_string model))

(* ---------- sharing a fresh model across systhreads ---------- *)

let js_graphs ~n ~seed =
  let config = { Corpus.Gen.default with Corpus.Gen.n_files = n; seed } in
  let repr =
    Pigeon.Graphs.default_repr ~config:Pigeon.Lang.javascript.Pigeon.Lang.tuned ()
  in
  Pigeon.Task.graphs_of_sources ~repr ~lang:Pigeon.Lang.javascript
    ~policy:Pigeon.Graphs.Locals
    (Corpus.Gen.generate_sources config Corpus.Render.Js)

(* Four systhreads start on one freshly mapped model at once: each
   forces its lazily decoded weights and predicts every graph, so the
   first forces of [weights], [candidates] and the deferred checksums
   overlap, and unseen identifiers are interned concurrently. Every
   thread must see exactly the sequential predictions, over several
   fresh loads. *)
let test_crf_threads_share_fresh_model () =
  let model = Crf.Train.train (js_graphs ~n:60 ~seed:3) in
  let test_graphs = js_graphs ~n:20 ~seed:4 in
  with_temp_file ".crf" (fun path ->
      Crf.Serialize.save model path;
      let reference =
        let m, _ = load_mapped_exn path in
        List.map (Crf.Train.predict m) test_graphs
      in
      let features = Crf.Model.size (Crf.Train.weights model) in
      for _round = 1 to 4 do
        let fresh, _ = load_mapped_exn path in
        let go = Atomic.make false in
        let results = Array.make 4 (Error "not run") in
        let threads =
          Array.init 4 (fun t ->
              Thread.create
                (fun () ->
                  while not (Atomic.get go) do
                    Thread.yield ()
                  done;
                  results.(t) <-
                    (match
                       ( Crf.Model.size (Crf.Train.weights fresh),
                         List.map (Crf.Train.predict fresh) test_graphs )
                     with
                    | n, preds -> Ok (n, preds)
                    | exception e -> Error (Printexc.to_string e)))
                ())
        in
        Atomic.set go true;
        Array.iter Thread.join threads;
        Array.iteri
          (fun t r ->
            match r with
            | Ok (n, preds) ->
                check_int (Printf.sprintf "thread %d: feature count" t)
                  features n;
                check_bool
                  (Printf.sprintf "thread %d: sequential predictions" t)
                  true (preds = reference)
            | Error e -> Alcotest.failf "thread %d raised %s" t e)
          results
      done)

let suite =
  [
    ( "crf-mapped",
      [
        Alcotest.test_case "load is mapped" `Quick test_crf_mapped_is_mapped;
        Alcotest.test_case "byte-identical predictions" `Quick
          test_crf_byte_identical_predictions;
        Alcotest.test_case "save-map-save bit-exact" `Quick
          test_crf_save_map_save_bit_exact;
        Alcotest.test_case "old versions rejected" `Quick
          test_crf_old_versions_rejected;
        Alcotest.test_case "mapped tables read-only" `Quick
          test_itbl_mapped_read_only;
        Alcotest.test_case "fresh model shared by 4 threads" `Quick
          test_crf_threads_share_fresh_model;
      ] );
    ( "crf-corruption",
      [
        Alcotest.test_case "truncations contained" `Quick
          test_crf_mapped_truncations;
        Alcotest.test_case "bit flips contained" `Quick
          test_crf_mapped_bit_flips;
        Alcotest.test_case "hostile lengths contained" `Quick
          test_crf_mapped_hostile_lengths;
        Alcotest.test_case "short files contained" `Quick
          test_crf_mapped_short_files;
      ] );
    ( "w2v-mapped",
      [
        Alcotest.test_case "byte-identity and round-trip" `Quick
          test_w2v_mapped_byte_identity;
        Alcotest.test_case "corruption contained" `Quick
          test_w2v_mapped_corruption;
        Alcotest.test_case "old versions rejected" `Quick
          test_w2v_old_versions_rejected;
      ] );
  ]

let () = Alcotest.run "mmap" suite
