(** Fixed-size domain pool with deterministic fan-out.

    One pool is spawned per process (or per explicit {!create}) and
    reused across calls: worker domains are started once and park on a
    condition variable between batches, so the per-call overhead is a
    few mutex operations, not a domain spawn.

    The contract every caller relies on:

    - {b jobs = 1 is the sequential code.} A 1-job pool (or a 1-element
      input) runs the function inline on the calling domain, in input
      order, with no queue, no extra allocation pattern, and no domain
      in sight. Output is byte-identical to [Array.map].
    - {b Results are ordered.} Whatever the scheduling, [map f a] puts
      [f a.(i)] at index [i]. Callers that fold the result in index
      order are therefore deterministic for any job count, provided [f]
      itself is pure per element.
    - {b Exceptions propagate.} If one or more elements raise, the
      batch still runs to completion, then the exception of the
      lowest-indexed failing chunk is re-raised (with its backtrace) on
      the calling domain — the same exception a sequential run would
      have hit first. The pool stays usable afterwards.

    Work is distributed in contiguous index chunks whose boundaries
    depend only on the input length and the pool size, never on timing
    — the basis for the "deterministic for a fixed job count" promises
    made by the training layers. *)

type pool

exception Missing_result of { chunk : int; index : int }
(** A finished batch left a result slot empty — a pool invariant
    violation (every chunk ran without raising, yet some element has no
    result). Carries the chunk and element index so a long-lived caller
    can log exactly what was lost instead of crashing on an assertion.
    Worker exceptions are {e not} reported this way: they re-raise with
    their original backtrace (see {!map}). *)

val max_jobs : int
(** The largest job count a pool takes (128); {!create} and
    {!set_default_jobs} clamp larger requests to it. *)

val default_jobs : unit -> int
(** Effective job count for new default pools: the [PIGEON_JOBS]
    environment variable if set to a positive integer, any
    {!set_default_jobs} override (which wins over the environment),
    else [Domain.recommended_domain_count ()]. Always >= 1. *)

val set_default_jobs : int -> unit
(** Override the default job count (the CLI [--jobs] flag). If the
    shared pool already exists with a different size it is shut down
    and will be respawned lazily; call this at startup, not while
    parallel work is in flight. *)

val create : ?jobs:int -> unit -> pool
(** A fresh pool with [jobs] workers (default {!default_jobs}),
    clamped to [1, {!max_jobs}]. A pool of [n] jobs spawns [n - 1] domains:
    the calling domain is the n-th worker while a batch runs. *)

val jobs : pool -> int

val shutdown : pool -> unit
(** Drain queued work, stop and join the worker domains. The pool must
    not be used afterwards. Idle pools leaked at process exit are
    harmless (exit terminates all domains), so calling this is only
    required when cycling pool sizes within one process. *)

val get_pool : unit -> pool
(** The shared process-wide pool, created lazily at {!default_jobs}
    size. This is what every [?pool] argument downstream defaults to. *)

val map : ?pool:pool -> ('a -> 'b) -> 'a array -> 'b array
(** [map f a] is [Array.map f a], fanned out over the pool. *)

val map_list : ?pool:pool -> ('a -> 'b) -> 'a list -> 'b list

val map_reduce :
  ?pool:pool -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> 'c -> 'a array -> 'c
(** [map_reduce ~map ~reduce init a] folds the mapped results in index
    order: [reduce (... (reduce init (map a.(0))) ...) (map a.(n-1))].
    The fold itself runs on the calling domain, so the result is
    deterministic for any job count (only the [map]s run in parallel). *)

val chunk_ranges : chunks:int -> int -> (int * int) array
(** [chunk_ranges ~chunks n] splits [0 .. n-1] into at most [chunks]
    contiguous, balanced [(lo, hi)] ranges (inclusive), preserving
    order. Exposed so training layers can build per-chunk accumulators
    with the exact same deterministic boundaries the pool uses. *)
