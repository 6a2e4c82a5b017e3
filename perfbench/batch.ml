(* The three in-process workloads: extraction into graph shards, CRF
   training and SGNS training. Each one is a set-up, a pass repeated
   over the timed region, one-shot rounds between the passes that time
   single files from source text to their answer, and output checks on
   the last pass. *)

open Common

(* Size the shared pool and spawn its domains now, outside any timed
   pass. *)
let set_jobs n =
  Parallel.set_default_jobs n;
  ignore (Parallel.get_pool ())

(* The pool as the CLI hands it to trainers: only when it has more than
   one job (a 1-job pool means the sequential trainer). *)
let train_pool () =
  let p = Parallel.get_pool () in
  if Parallel.jobs p > 1 then Some p else None

let skip_count (r : Pigeon.Ingest.report) = List.length r.Pigeon.Ingest.skipped

(* ---------- trace mode, shared by the batch workloads ---------- *)

(* The per-layer run: one untraced pass at 2 jobs, the CLI default on a
   2-core host, for [parallel.speedup], then one untraced and one traced
   pass at one job. Self times add up only
   on one domain, and OCaml 5 counts minor words per domain, so both
   come from the 1-job traced pass. [pass i] and [traced_pass] write
   under [pass_dir dir i] and [pass_dir dir 2]. [probe] re-runs, on the
   traced pass's outputs, the calls the pipeline makes only inside
   another layer's function; it is traced but kept out of the overhead.
   Returns the columns and the output of the 2-job pass; the pool is
   left at [jobs]. *)
let trace_run ~jobs ~pass ~traced_pass ~probe =
  set_jobs 2;
  Gc.full_major ();
  let out_par, wall_par = time (fun () -> pass 0) in
  set_jobs 1;
  Gc.full_major ();
  let _, wall_seq = time (fun () -> pass 1) in
  Gc.full_major ();
  Trace.record (fun () ->
      let out = Trace.span "perfbench.pass" traced_pass in
      Trace.span "perfbench.probe" (fun () -> probe out));
  set_jobs jobs;
  let wall_traced = Trace.total_s "perfbench.pass" in
  ( Layers.traced ~speedup:(wall_seq /. wall_par)
      ~overhead:((wall_traced /. wall_seq) -. 1.),
    out_par )

(* Index and extraction run inside [Graphs.build] and
   [W2v_task.pairs_of_source]; the probe re-runs them on the same trees
   so those layers get columns of their own. *)
let tree_probe (lang : Pigeon.Lang.t) trees =
  List.iter
    (fun tree ->
      let idx =
        Trace.span "ast.index" ~items:Ast.Index.size (fun () -> Ast.Index.build tree)
      in
      let n = ref 0 in
      Trace.span "astpath.extract" ~items:(fun () -> !n) (fun () ->
          Astpath.Extract.iter_all idx lang.Pigeon.Lang.tuned (fun _ -> incr n)))
    trees

(* A failed check ends the run, so a finished batch run failed nothing. *)
let batch_reports ~attempted rs =
  rs
  @ [
      metric "peak_heap_mb" "MB" (peak_heap_mb ());
      metric "failed_share" "share" 0. ~samples:attempted;
    ]

let corpus_note files =
  Printf.sprintf "corpus %d files, %d bytes" (List.length files)
    (List.fold_left (fun n (_, src) -> n + String.length src) 0 files)

(* A fresh, empty directory for pass [i]. *)
let pass_dir dir i =
  let d = Filename.concat dir (Printf.sprintf "pass-%d" i) in
  rm_rf d;
  mkdir_p d;
  d

let end_to_end ~setup_s ~setups ~times ~peak ~files ~best =
  let rates = List.map (fun dt -> float_of_int files /. dt) times in
  let latencies = Array.to_list best in
  let n_lat = List.length latencies in
  ( [
      metric "setup_s" "s" setup_s ~samples:setups;
      metric "files_per_s" "files/s" (median rates) ~samples:(List.length rates);
      metric "file_p50_ms" "ms" (median latencies) ~samples:n_lat;
      metric "peak_mem_mb" "MB" peak;
    ],
    metric "file_p90_ms" "ms" (percentile 0.9 latencies) ~samples:n_lat,
    Printf.sprintf "files/s per pass: %s; one-shot latency: each file's fastest of %d calls"
      (String.concat " " (List.map (Printf.sprintf "%.1f") rates))
      (List.length times) )

(* ---------- extract-corpus ---------- *)

let extract_files = 200
(* One file in [hostile_every] per language is malformed or hostile. *)
let hostile_every = 20

(* Malformed and hostile files and the diagnostic each must produce. *)
let hostile (lang : Pigeon.Lang.t) rng src =
  match Random.State.int rng 2 with
  | 0 ->
      let prefix =
        match front_end lang with
        | "minijava" | "minicsharp" -> "class A { int f() { return "
        | "minipython" -> "x = "
        | _ -> "var x = "
      in
      (prefix ^ String.make 20_000 '(', Lexkit.Diag.Depth_limit_exceeded)
  | _ ->
      ( "\x00\x01\xfe\xff garbage " ^ String.sub src 0 (min 40 (String.length src)),
        Lexkit.Diag.Parse_error )

type extract_state = {
  corpora : (Pigeon.Lang.t * (string * string) list) list;
  injected : (string * string * Lexkit.Diag.kind) list;
      (** (language, file, expected diagnostic) *)
}

let extract_setup ~seed () =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let injected = ref [] in
  let corpora =
    List.mapi
      (fun k (lang : Pigeon.Lang.t) ->
        let srcs = Array.of_list (sources lang ~n:extract_files ~seed:((seed * 4) + k)) in
        let n = Array.length srcs in
        let bad = Hashtbl.create 8 in
        while Hashtbl.length bad < n / hostile_every do
          Hashtbl.replace bad (Random.State.int rng n) ()
        done;
        let srcs =
          List.mapi
            (fun i (file, src) ->
              if Hashtbl.mem bad i then begin
                let bad, kind = hostile lang rng src in
                injected := (lang.Pigeon.Lang.name, file, kind) :: !injected;
                (file, bad)
              end
              else (file, src))
            (Array.to_list srcs)
        in
        (lang, srcs))
      Pigeon.Lang.all
  in
  { corpora; injected = List.rev !injected }

let n_files st = List.fold_left (fun n (_, s) -> n + List.length s) 0 st.corpora

let lang_dir dir (lang : Pigeon.Lang.t) = Filename.concat dir (front_end lang)

(* The extraction stage of [pigeon train --shard-dir], per language. *)
let extract_pass st ~dir =
  List.map
    (fun (lang, srcs) ->
      Pigeon.Task.extract_graph_shards ~repr:(repr_of lang) ~lang
        ~policy:Pigeon.Graphs.Locals ~dir:(lang_dir dir lang) srcs)
    st.corpora

(* [Task.extract_graph_shards] composed from the public calls it makes,
   so that each one gets a span. Trees are kept for the probe. *)
let extract_traced st ~dir =
  List.map
    (fun ((lang : Pigeon.Lang.t), srcs) ->
      let w =
        Trace.span "corpus.shard_write" (fun () ->
            Corpus.Shard.create_writer ~dir:(lang_dir dir lang)
              ~kind:Corpus.Shard.Graphs ())
      in
      let intern = Corpus.Shard.intern w in
      let trees = ref [] in
      let report =
        Trace.span "pigeon.ingest" ~items:(fun _ -> List.length srcs) (fun () ->
            Pigeon.Ingest.stream
              ~f:(fun _ src ->
                let tree = parse lang src in
                trees := tree :: !trees;
                graph_of lang tree)
              ~emit:(fun g ->
                Trace.span "corpus.shard_write" ~items:(fun _ -> 1) (fun () ->
                    Corpus.Shard.add_graph w (Pigeon.Task.rec_of_graph ~intern g)))
              srcs)
      in
      Trace.count "pigeon.ingest_skipped" (skip_count report);
      let set = Trace.span "corpus.shard_write" (fun () -> Corpus.Shard.finish w) in
      (lang, set, List.rev !trees))
    st.corpora

(* Read the shards back, and give index and extraction their columns. *)
let extract_probe outs =
  List.iter
    (fun (lang, set, trees) ->
      tree_probe lang trees;
      for s = 0 to Corpus.Shard.n_shards set - 1 do
        ignore
          (Trace.span "corpus.shard_read" ~items:List.length (fun () ->
               Pigeon.Task.graphs_of_shard set s))
      done)
    outs

let is_injected st (lang : Pigeon.Lang.t) file =
  List.exists (fun (l, f, _) -> l = lang.Pigeon.Lang.name && f = file) st.injected

(* Skips name exactly the injected files with their diagnostics, and the
   graphs read back from the shards equal a sequential [Graphs.build]
   of every clean file. *)
let extract_check st outs =
  List.iter2
    (fun ((lang : Pigeon.Lang.t), srcs) (set, (report : Pigeon.Ingest.report)) ->
      let name = lang.Pigeon.Lang.name in
      let expected =
        List.filter_map
          (fun (l, f, k) -> if l = name then Some (f, k) else None)
          st.injected
      in
      let got =
        List.map
          (fun (s : Pigeon.Ingest.skip) ->
            (s.Pigeon.Ingest.file, s.Pigeon.Ingest.diag.Lexkit.Diag.kind))
          report.Pigeon.Ingest.skipped
      in
      let sort = List.sort compare in
      check (sort got = sort expected)
        "%s: %d skips (%s) where %d malformed files were injected" name
        (List.length got)
        (String.concat ", "
           (List.map (fun (f, k) -> f ^ ":" ^ Lexkit.Diag.kind_name k) got))
        (List.length expected);
      let reference =
        List.filter_map
          (fun (file, src) ->
            if is_injected st lang file then None else Some (graph_of lang (parse lang src)))
          srcs
      in
      let decoded =
        List.concat
          (List.init (Corpus.Shard.n_shards set) (Pigeon.Task.graphs_of_shard set))
      in
      (* The shard encoding stores pairwise factors before unary ones. *)
      let canon (g : Crf.Graph.t) =
        (g.Crf.Graph.nodes, List.sort compare g.Crf.Graph.factors)
      in
      check
        (List.map canon decoded = List.map canon reference)
        "%s: graphs read back from the shards differ from a sequential build" name)
    st.corpora outs

let expected_kinds st =
  List.fold_left
    (fun acc (_, _, k) ->
      let n = try List.assoc k acc with Not_found -> 0 in
      (k, n + 1) :: List.remove_assoc k acc)
    [] st.injected
  |> List.map (fun (k, n) -> Printf.sprintf "%s:%d" (Lexkit.Diag.kind_name k) n)
  |> List.sort compare |> String.concat " "

let extract ~seed ~seconds ~trace ~jobs ~dir =
  let st, setup_s, setups = repeated_setup ~discard:ignore (extract_setup ~seed) in
  let files = n_files st in
  if trace then begin
    let layers, outs =
      trace_run ~jobs
        ~pass:(fun i -> extract_pass st ~dir:(pass_dir dir i))
        ~traced_pass:(fun () -> extract_traced st ~dir:(pass_dir dir 2))
        ~probe:extract_probe
    in
    extract_check st outs;
    { attempted = files; failed = 0; metrics = layers; reports = []; notes = [] }
  end
  else begin
    set_jobs jobs;
    (* One file from source text to its factor graph. *)
    let one_shot =
      List.concat_map
        (fun (lang, srcs) ->
          List.filter_map
            (fun (file, src) ->
              if is_injected st lang file then None
              else Some (fun () -> graph_of lang (parse lang src)))
            srcs)
        st.corpora
    in
    let best = Array.make (List.length one_shot) infinity in
    let outs, times, peak =
      timed_passes ~seconds
        ~between:(fun _ -> one_shot_round best one_shot)
        (fun i -> extract_pass st ~dir:(pass_dir dir i))
    in
    extract_check st outs;
    let metrics, p90, rates = end_to_end ~setup_s ~setups ~times ~peak ~files ~best in
    {
      attempted = files;
      failed = 0;
      metrics;
      reports = batch_reports ~attempted:files [ p90 ];
      notes =
        [ "injected " ^ expected_kinds st; corpus_note (List.concat_map snd st.corpora); rates ];
    }
  end

(* ---------- train-crf ---------- *)

(* JavaScript variable names, as [pigeon train] runs it by default. *)
let crf_files = 400

type split = { train : (string * string) list; test : (string * string) list }

let js = Pigeon.Lang.javascript

let crf_setup ~seed () =
  let train, test = split_corpus js ~n:crf_files ~seed in
  { train; test }

let load_mapped_crf path =
  match Crf.Serialize.load_mapped path with
  | Ok (m, _) -> m
  | Error d -> raise (Check_failed ("load_mapped: " ^ Lexkit.Diag.to_string d))

let gold_pred graphs preds =
  List.concat
    (List.map2
       (fun g pred ->
         let gold = Crf.Graph.gold_assignment g in
         List.map (fun n -> (gold.(n), pred.(n))) (Crf.Graph.unknown_ids g))
       graphs preds)

type crf_out = {
  model : Crf.Train.model;
  mapped : Crf.Train.model;  (** [model] saved and loaded back mapped *)
  test_graphs : Crf.Graph.t list;
  preds : string array list;  (** held-out predictions of the mapped model *)
}

(* Ingest, train, save, load mapped, predict the held-out files. *)
let crf_pass st ~dir =
  let graphs, _ =
    Pigeon.Task.graphs_of_sources_report ~repr:(repr_of js) ~lang:js
      ~policy:Pigeon.Graphs.Locals st.train
  in
  let model = Crf.Train.train ?pool:(train_pool ()) graphs in
  let path = Filename.concat dir "model.crf" in
  Crf.Serialize.save model path;
  let mapped = load_mapped_crf path in
  let test_graphs, _ =
    Pigeon.Task.graphs_of_sources_report ~repr:(repr_of js) ~lang:js
      ~policy:Pigeon.Graphs.Locals st.test
  in
  { model; mapped; test_graphs; preds = Crf.Train.predict_batch mapped test_graphs }

(* [crf_pass] composed from its public calls; trees kept for the probe. *)
let crf_traced st ~dir =
  let trees = ref [] in
  let ingest srcs =
    let graphs, report =
      Trace.span "pigeon.ingest" ~items:(fun _ -> List.length srcs) (fun () ->
          Pigeon.Ingest.run
            ~f:(fun _ src ->
              let tree = parse js src in
              trees := tree :: !trees;
              graph_of js tree)
            srcs)
    in
    Trace.count "pigeon.ingest_skipped" (skip_count report);
    graphs
  in
  let graphs = ingest st.train in
  let model =
    Trace.span "crf.train" ~items:(fun _ -> List.length graphs) (fun () ->
        Crf.Train.train ?pool:(train_pool ()) graphs)
  in
  let path = Filename.concat dir "model.crf" in
  Trace.span "crf.save" ~items:(fun () -> file_size path) (fun () ->
      Crf.Serialize.save model path);
  let mapped =
    Trace.span "crf.load_mapped" ~items:(fun _ -> file_size path) (fun () ->
        load_mapped_crf path)
  in
  let test_graphs = ingest st.test in
  let preds =
    Trace.span "crf.predict" ~items:List.length (fun () ->
        Crf.Train.predict_batch mapped test_graphs)
  in
  ({ model; mapped; test_graphs; preds }, List.rev !trees)

(* Graph encoding runs inside training and prediction; encode the
   held-out graphs once more so it gets a column of its own. *)
let crf_probe (out, trees) =
  tree_probe js trees;
  List.iter
    (fun g ->
      ignore
        (Trace.span "crf.encode" ~items:(fun _ -> 1) (fun () ->
             Crf.Fast.encode out.model.Crf.Train.fast g)))
    out.test_graphs

(* The mapped model predicts what the in-memory one does. *)
let crf_check out =
  check
    (Crf.Train.predict_batch out.model out.test_graphs = out.preds)
    "held-out predictions of the mapped model differ from the in-memory model"

(* One file from source text to predicted names, through the mapped
   model. *)
let crf_one_shot st out =
  List.map
    (fun (_, src) () -> Crf.Train.predict out.mapped (graph_of js (parse js src)))
    (st.train @ st.test)

let train_crf ~seed ~seconds ~trace ~jobs ~dir =
  let st, setup_s, setups = repeated_setup ~discard:ignore (crf_setup ~seed) in
  let files = List.length st.train + List.length st.test in
  let exact out = exact_share (gold_pred out.test_graphs out.preds) in
  if trace then begin
    let layers, out =
      trace_run ~jobs
        ~pass:(fun i -> crf_pass st ~dir:(pass_dir dir i))
        ~traced_pass:(fun () -> crf_traced st ~dir:(pass_dir dir 2))
        ~probe:crf_probe
    in
    crf_check out;
    let path = Filename.concat (Filename.concat dir "pass-0") "model.crf" in
    let iterations = Crf.Train.default_config.Crf.Train.iterations in
    {
      attempted = files;
      failed = 0;
      metrics =
        layers
        @ [
            metric "crf.train_iter_s" "s"
              (Trace.self_s "crf.train" /. float_of_int iterations);
            metric "crf.model_bytes" "bytes" (float_of_int (file_size path));
            metric "crf.exact_match" "share" (exact out);
          ];
      reports = [];
      notes = [];
    }
  end
  else begin
    set_jobs jobs;
    let best = Array.make files infinity in
    let out, times, peak =
      timed_passes ~seconds
        ~between:(fun out -> one_shot_round best (crf_one_shot st out))
        (fun i -> crf_pass st ~dir:(pass_dir dir i))
    in
    crf_check out;
    let metrics, p90, rates = end_to_end ~setup_s ~setups ~times ~peak ~files ~best in
    {
      attempted = files;
      failed = 0;
      metrics;
      reports =
        batch_reports ~attempted:files
          [
            p90;
            metric "exact_match" "share" (exact out)
              ~samples:(List.length (gold_pred out.test_graphs out.preds));
          ];
      notes = [ corpus_note (st.train @ st.test); rates ];
    }
  end

(* ---------- train-sgns ---------- *)

(* Python corpus, the out-of-core path of [pigeon train --w2v
   --shard-dir]. Small: SGNS dominates the pass. *)
let sgns_files = 120
let py = Pigeon.Lang.python
let sgns_config = Word2vec.Sgns.default_config
let w2v_mode = Pigeon.W2v_task.Paths (repr_of py)

let sgns_setup ~seed () =
  let train, test = split_corpus py ~n:sgns_files ~seed in
  { train; test }

type sgns_out = {
  w2v : Word2vec.Sgns.t;
  path : string;  (** where [w2v] was saved *)
  eval : (string * string) list;  (** held-out (gold, predicted) names *)
  pairs : int;
}

let predict_elems model elems =
  List.filter_map
    (fun (gold, ctxs) ->
      match Word2vec.Sgns.predict model ctxs with
      | (pred, _) :: _ -> Some (gold, pred)
      | [] -> None)
    elems

let train_w2v ~pairs_of_shard (plan : Pigeon.W2v_task.plan) =
  Word2vec.Sgns.train_stream ?pool:(train_pool ()) ~config:sgns_config
    ~words:plan.Pigeon.W2v_task.plan_words
    ~contexts:plan.Pigeon.W2v_task.plan_contexts
    ~shard_sizes:plan.Pigeon.W2v_task.plan_sizes ~pairs_of_shard ()

let plan_total (plan : Pigeon.W2v_task.plan) =
  Array.fold_left ( + ) 0 plan.Pigeon.W2v_task.plan_sizes

(* Extract pair shards, plan, train streaming, save, predict held-out. *)
let sgns_pass st ~dir =
  let set, _ =
    Pigeon.W2v_task.extract_pair_shards ~lang:py ~mode:w2v_mode
      ~dir:(Filename.concat dir "pairs") st.train
  in
  let plan =
    Pigeon.W2v_task.plan_of_set ~min_count:sgns_config.Word2vec.Sgns.min_count set
  in
  let w2v = train_w2v ~pairs_of_shard:(Pigeon.W2v_task.plan_pairs plan) plan in
  let path = Filename.concat dir "model.w2v" in
  Word2vec.Serialize.save w2v path;
  let elems, _ =
    Pigeon.Ingest.run
      ~f:(fun _ src -> Pigeon.W2v_task.pairs_of_source ~lang:py ~mode:w2v_mode src)
      st.test
  in
  { w2v; path; eval = predict_elems w2v (List.concat elems); pairs = plan_total plan }

let sgns_traced st ~dir =
  let pairs_of_source src =
    Trace.span "pigeon.pairs" ~items:(fun _ -> 1) (fun () ->
        Pigeon.W2v_task.pairs_of_source ~lang:py ~mode:w2v_mode src)
  in
  let w =
    Trace.span "corpus.shard_write" (fun () ->
        Corpus.Shard.create_writer ~dir:(Filename.concat dir "pairs")
          ~kind:Corpus.Shard.Pairs ())
  in
  let report =
    Trace.span "pigeon.ingest" ~items:(fun _ -> List.length st.train) (fun () ->
        Pigeon.Ingest.stream
          ~f:(fun _ src -> pairs_of_source src)
          ~emit:(fun elems ->
            let n = ref 0 in
            Trace.span "corpus.shard_write" ~items:(fun () -> !n) (fun () ->
                List.iter
                  (fun (name, ctxs) ->
                    let wid = Corpus.Shard.intern w name in
                    List.iter
                      (fun c ->
                        incr n;
                        Corpus.Shard.add_pair w wid (Corpus.Shard.intern w c))
                      ctxs)
                  elems))
          st.train)
  in
  Trace.count "pigeon.ingest_skipped" (skip_count report);
  let set = Trace.span "corpus.shard_write" (fun () -> Corpus.Shard.finish w) in
  let plan =
    Trace.span "pigeon.plan" ~items:plan_total (fun () ->
        Pigeon.W2v_task.plan_of_set ~min_count:sgns_config.Word2vec.Sgns.min_count set)
  in
  let pairs = plan_total plan in
  let w2v =
    Trace.span "word2vec.train"
      ~items:(fun _ -> pairs * sgns_config.Word2vec.Sgns.epochs)
      (fun () ->
        train_w2v plan ~pairs_of_shard:(fun s ->
            Trace.span "corpus.shard_read" ~items:Array.length (fun () ->
                Pigeon.W2v_task.plan_pairs plan s)))
  in
  let path = Filename.concat dir "model.w2v" in
  Trace.span "word2vec.save" ~items:(fun () -> file_size path) (fun () ->
      Word2vec.Serialize.save w2v path);
  let elems, _ =
    Trace.span "pigeon.ingest" ~items:(fun _ -> List.length st.test) (fun () ->
        Pigeon.Ingest.run ~f:(fun _ src -> pairs_of_source src) st.test)
  in
  let elems = List.concat elems in
  let eval =
    Trace.span "word2vec.predict" ~items:(fun _ -> List.length elems) (fun () ->
        predict_elems w2v elems)
  in
  { w2v; path; eval; pairs }

(* Parsing, indexing and extraction run inside [pairs_of_source]; re-run
   them on the training files so those layers get columns of their own. *)
let sgns_probe st _ =
  tree_probe py (List.map (fun (_, src) -> parse py src) st.train)

(* The saved model reloads with equal vocabularies and vectors. *)
let sgns_check out =
  match Word2vec.Serialize.load out.path with
  | Error d -> raise (Check_failed ("w2v load: " ^ Lexkit.Diag.to_string d))
  | Ok m ->
      let w = out.w2v in
      check
        (Word2vec.Vocab.size m.Word2vec.Sgns.words = Word2vec.Vocab.size w.Word2vec.Sgns.words
        && Word2vec.Vocab.size m.Word2vec.Sgns.contexts
           = Word2vec.Vocab.size w.Word2vec.Sgns.contexts
        && m.Word2vec.Sgns.word_vecs = w.Word2vec.Sgns.word_vecs
        && m.Word2vec.Sgns.context_vecs = w.Word2vec.Sgns.context_vecs)
        "the saved word2vec model reloads with different vectors"

(* One file from source text to predicted names. *)
let sgns_one_shot st out =
  List.map
    (fun (_, src) () ->
      predict_elems out.w2v (Pigeon.W2v_task.pairs_of_source ~lang:py ~mode:w2v_mode src))
    (st.train @ st.test)

let train_sgns ~seed ~seconds ~trace ~jobs ~dir =
  let st, setup_s, setups = repeated_setup ~discard:ignore (sgns_setup ~seed) in
  let files = List.length st.train + List.length st.test in
  if trace then begin
    let layers, out =
      trace_run ~jobs
        ~pass:(fun i -> sgns_pass st ~dir:(pass_dir dir i))
        ~traced_pass:(fun () -> sgns_traced st ~dir:(pass_dir dir 2))
        ~probe:(sgns_probe st)
    in
    sgns_check out;
    let train_s = Trace.self_s "word2vec.train" in
    {
      attempted = files;
      failed = 0;
      metrics =
        layers
        @ [
            metric "word2vec.pairs_per_s" "pairs/s"
              (float_of_int (Trace.items "word2vec.train") /. train_s);
            metric "word2vec.exact_match" "share" (exact_share out.eval);
          ];
      reports = [];
      notes = [];
    }
  end
  else begin
    set_jobs jobs;
    let best = Array.make files infinity in
    let out, times, peak =
      timed_passes ~seconds
        ~between:(fun out -> one_shot_round best (sgns_one_shot st out))
        (fun i -> sgns_pass st ~dir:(pass_dir dir i))
    in
    sgns_check out;
    let metrics, p90, rates = end_to_end ~setup_s ~setups ~times ~peak ~files ~best in
    {
      attempted = files;
      failed = 0;
      metrics;
      reports =
        batch_reports ~attempted:files
          [ p90; metric "exact_match" "share" (exact_share out.eval) ~samples:(List.length out.eval) ];
      notes =
        [
          corpus_note (st.train @ st.test);
          Printf.sprintf "%d training pairs" out.pairs;
          rates;
        ];
    }
  end
