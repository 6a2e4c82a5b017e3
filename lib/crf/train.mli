(** Training: averaged structured perceptron over factor graphs.

    Per training graph: run MAP inference with the current weights
    (with the gold labels injected into candidate sets so the target is
    reachable), then update each feature by the difference between its
    count under the gold assignment and under the prediction. Averaging
    uses the standard [w - u/C] trick, which makes the learned weights
    far more stable than the final-iterate weights.

    This replaces Nice2Predict's max-margin SGD; both are
    discriminative trainers that maximize the factor-graph score of the
    gold assignment against competing ones, which is all the paper's
    representation comparison needs. *)

type config = {
  iterations : int;
  inference : Inference.config;
  seed : int;
  averaged : bool;
  init : Fast.init_style;  (** Generative weight initialization. *)
  trainer : Fast.trainer;
  engine : Fast.engine;
      (** ICM implementation ([Incremental] by default); both engines
          produce byte-identical models and predictions. Not
          serialized — restored models use the default. *)
}

val default_config : config

type model = {
  weights : Model.t Lazy.t;
      (** Final (averaged) weights, decoded to the public feature
          table for inspection; prediction runs on the int-encoded
          {!Fast.model} below. Lazy because decoding to string
          features dominates model-load time and inference never
          reads it. Read it with {!weights}. *)
  candidates : Candidates.t Lazy.t;
      (** Lazy for the same reason: a mapped load defers parsing (and
          checksumming) the candidate sections to first use, and the
          trainer already has them in hand. Read it with
          {!candidates}. *)
  config : config;
  fast : Fast.model;
}

val weights : model -> Model.t
val candidates : model -> Candidates.t
(** Force the model's {!field-weights} or {!field-candidates}. Safe to
    call from several systhreads or domains at once on a freshly loaded
    model, which a bare [Lazy.force] is not; every function below reads
    the fields this way. *)

val train : ?pool:Parallel.pool -> ?config:config -> Graph.t list -> model
(** Without [pool], the sequential trainer (byte-identical to previous
    releases). With one, training passes run in synchronized parallel
    rounds — see {!Fast.train} for the exact semantics. *)

val train_of_shards :
  ?pool:Parallel.pool ->
  ?config:config ->
  n_shards:int ->
  graphs_of_shard:(int -> Graph.t list) ->
  ?from:Fast.model * int * int ->
  ?on_shard:(it:int -> shard:int -> Fast.model -> unit) ->
  unit ->
  model
(** Out-of-core {!train}: graphs arrive shard by shard and at most one
    shard is in memory at a time (see {!Fast.train_stream} for the
    exact pass semantics and the bit-exact resume contract).
    [graphs_of_shard] must be stable — same graphs, same order, every
    call — which shard files on disk guarantee. [on_shard] is the
    checkpoint hook; [from] resumes from a {!Fast.restore_full}'d
    model and its (iteration, shard) cursor, rebuilding the candidate
    table from the shards against the restored symbol table. *)

val predict : model -> Graph.t -> string array
(** MAP assignment; known nodes keep their labels. *)

val predict_batch :
  ?pool:Parallel.pool -> model -> Graph.t list -> string array list
(** [List.map (predict model)], fanned out over [pool] (default: the
    shared pool). Identical output for every job count. *)

val top_k : model -> Graph.t -> node:int -> k:int -> (string * float) list
(** Top-k suggestions for one node under the MAP assignment of the
    rest of the graph. *)

val accuracy : ?pool:Parallel.pool -> model -> Graph.t list -> float
(** Fraction of unknown nodes whose predicted label equals gold, by
    exact string equality (task-level metrics apply the paper's
    case/separator-insensitive normalization on top of this).
    Prediction is batched over [pool]; the result does not depend on
    the job count. *)

val oov_rate : model -> Graph.t list -> float
(** Fraction of unknown-node gold labels never seen in training (the
    paper's out-of-vocabulary discussion, Section 5.3.1: 5–15% across
    their datasets). OoV nodes can never be predicted exactly. *)
