(* The per-layer columns of the traced run. Every workload reports every
   column, so a layer a workload does not reach reads 0 there. *)

(* Spans the benchmark records, as layer.call, with the unit of the
   work count charged to each. *)
let spans =
  [
    ("minijs.parse", "bytes");
    ("minijava.parse", "bytes");
    ("minipython.parse", "bytes");
    ("minicsharp.parse", "bytes");
    ("ast.index", "nodes");
    ("astpath.extract", "contexts");
    ("astpath.cached_extract", "contexts");
    ("pigeon.ingest", "files");
    ("pigeon.graphs", "graphs");
    ("pigeon.pairs", "files");
    ("pigeon.plan", "pairs");
    ("corpus.shard_write", "records");
    ("corpus.shard_read", "records");
    ("crf.encode", "graphs");
    ("crf.train", "graphs");
    ("crf.predict", "graphs");
    ("crf.save", "bytes");
    ("crf.load_mapped", "bytes");
    ("word2vec.train", "pairs");
    ("word2vec.save", "bytes");
    ("word2vec.predict", "elements");
    ("serve.engine", "requests");
    ("serve.json", "requests");
    ("serve.wire", "requests");
  ]

(* Columns derived from spans, counters or the daemon's [stats] reply:
   name, unit, and whether higher is better. *)
let derived =
  [
    ("astpath.words_per_context", "words", false);
    ("astpath.cache_hit_ratio", "ratio", true);
    ("pigeon.ingest_skipped", "files", false);
    ("crf.train_iter_s", "s", false);
    ("crf.model_bytes", "bytes", false);
    ("crf.exact_match", "share", true);
    ("word2vec.pairs_per_s", "pairs/s", true);
    ("word2vec.exact_match", "share", true);
    ("serve.engine_ms", "ms", false);
    ("serve.queue_wait_ms", "ms", false);
    ("serve.batches", "count", false);
    ("serve.mean_batch", "requests", true);
    ("serve.queue_hw", "requests", false);
    ("serve.shed", "requests", false);
    ("parallel.speedup", "ratio", true);
    ("trace.overhead_share", "share", false);
    ("trace.self_share", "share", true);
  ]

(* (name, unit, higher is better) of every column, in output order. *)
let all =
  List.concat_map
    (fun (s, items) ->
      [ (s ^ "_s", "s", false); (s ^ "_items", items, true); (s ^ "_words", "words", false) ])
    spans
  @ derived

(* Span columns from the trace table, plus the derived columns any span
   gives directly. *)
let columns () =
  let open Common in
  let spans =
    List.concat_map
      (fun (s, items) ->
        [
          metric (s ^ "_s") "s" (Trace.self_s s);
          metric (s ^ "_items") items (float_of_int (Trace.items s));
          metric (s ^ "_words") "words" (Trace.words s);
        ])
      spans
  in
  let contexts = Trace.items "astpath.extract" in
  spans
  @ [
      metric "pigeon.ingest_skipped" "files"
        (float_of_int (Trace.items "pigeon.ingest_skipped"));
      metric "astpath.words_per_context" "words"
        (if contexts = 0 then 0.
         else Trace.words "astpath.extract" /. float_of_int contexts);
    ]

(* The columns of a finished traced run, whose passes ran under the
   root spans [perfbench.pass] (the workload) and [perfbench.probe] (the
   calls re-run so that layers reached only inside another layer get
   columns of their own). The layers' self times must cover at least
   nine tenths of that wall time, or the trace misses work. *)
let traced ~speedup ~overhead =
  let wall = Trace.total_s "perfbench.pass" +. Trace.total_s "perfbench.probe" in
  let layer_self =
    List.fold_left
      (fun acc n ->
        if String.starts_with ~prefix:"perfbench." n then acc else acc +. Trace.self_s n)
      0. (Trace.names ())
  in
  let self_share = layer_self /. wall in
  Common.check
    (self_share >= 0.9 && self_share <= 1.0 +. 1e-9)
    "layer self times cover %.3f of the traced wall time" self_share;
  columns ()
  @ Common.
      [
        metric "parallel.speedup" "ratio" speedup;
        metric "trace.overhead_share" "share" overhead;
        metric "trace.self_share" "share" self_share;
      ]

(* Every column of [all], taking values from [ms] and 0 where absent. *)
let complete (ms : Common.metric list) =
  List.map
    (fun (name, unit_, _) ->
      match List.find_opt (fun (m : Common.metric) -> m.Common.name = name) ms with
      | Some m -> m
      | None -> Common.metric name unit_ 0.)
    all
