(** Candidate generation for MAP inference.

    Nice2Predict-style pruning: instead of scoring the full label
    vocabulary at every node, inference considers labels that
    co-occurred in training with the node's unary relations, or with a
    (relation, known-neighbor-label) pair, topped up with the globally
    most frequent labels.

    Counts are stored per interned label/relation id (see {!Symbols});
    {!Fast} shares the same table so candidate ids flow into the
    int-keyed engine without re-interning. The string-returning
    functions resolve through the table and exist for the string-side
    reference engine and serialization. *)

type t

val build : ?symbols:Symbols.t -> Graph.t list -> t
(** Count co-occurrences over gold-labelled training graphs, interning
    gold labels and relations into [symbols] (fresh when omitted) in
    corpus order. *)

val create : ?symbols:Symbols.t -> unit -> t
(** An empty table, for streaming construction: feed graphs through
    {!count_graph} as they come off disk. [build] = [create] + a fold
    of {!count_graph}, so a streamed build over the same graphs in the
    same order is identical. *)

val count_graph : t -> Graph.t -> unit
(** Fold one graph's gold co-occurrences into the table — the
    out-of-core counting pass's unit. Safe to interleave with queries
    (the ranking cache is invalidated), though normal use counts
    everything first. *)

val symbols : t -> Symbols.t

val num_labels : t -> int

val global_top : t -> int -> string list
(** The [k] most frequent unknown-node labels in training; ties break
    alphabetically, so the ranking is hash-order independent. *)

val global_top_ids : t -> int -> int list

val for_node :
  t -> Graph.t -> Graph.factor list -> int -> max:int -> string list
(** [for_node t g touching n ~max] — candidate labels for node [n],
    most promising first, deduplicated, at most [max]. Only [`Known]
    neighbors contribute pairwise evidence (gold labels of unknown
    neighbors are never consulted). Never empty if training data was
    nonempty. *)

val ids_for_node :
  t -> Graph.t -> Graph.factor list -> int -> max:int -> int list
(** {!for_node} as interned label ids (same labels, same order). *)

type slate
(** A reusable per-label scoring buffer for batch candidate
    generation: flat arrays indexed by interned label id, cleared in
    O(labels touched) via an epoch stamp. One slate serves one caller
    at a time — allocate one per batch (as {!Fast} does per graph),
    never share across domains. *)

val slate : unit -> slate

val ids_for_node_into :
  slate -> t -> Graph.t -> Graph.factor list -> int -> max:int -> int list
(** {!ids_for_node}, accumulating evidence in [sl] instead of a fresh
    per-call table. Same labels, same order. *)

(** Id-level slate protocol, for callers (like {!Fast}) that already
    hold resolved rel and gold-label ids: [slate_begin], then any mix
    of [merge_*_id], then [slate_ranked]. Produces exactly what
    {!ids_for_node} would for the same evidence — merge order does not
    matter, ranking is a strict total order (count desc, label asc). *)

val slate_begin : slate -> t -> unit

val merge_unary_id : slate -> t -> int -> unit
(** Merge the co-occurrence counts of a unary relation id. *)

val merge_pairwise_id : slate -> t -> dir:int -> rel:int -> other:int -> unit
(** Merge counts for a pairwise factor: [dir] 0 when the scored node
    is the [a] endpoint, 1 when it is [b]; [other] is the interned
    gold label of the known neighbor. *)

val slate_ranked : slate -> t -> max:int -> int list
(** Rank merged evidence and top up with globally frequent labels. *)

val label_count : t -> string -> int

(** {2 Serialization support} *)

val dump_ids :
  t -> (int * int) list * (int * int * int) list * (int * int * int) list
(** (global (label, count), unary (rel, label, count), pairwise
    (packed key, label, count)) as raw interned ids, each list sorted —
    a canonical form, so the model writer is byte-deterministic. *)

val of_ids :
  symbols:Symbols.t ->
  global:(int * int) list ->
  unary:(int * int * int) list ->
  pairwise:(int * int * int) list ->
  t
(** Inverse of {!dump_ids} against an already-restored symbol table.
    Raises [Failure] if any id falls outside the table — a mangled model
    file surfaces as a corrupt-model diagnostic, not an array error. *)
