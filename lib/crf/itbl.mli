(** Open-addressed int -> float table (linear probing, unboxed float
    values) for weight storage on the training/inference hot path.

    Keys must be non-negative ([-1] is the empty-slot sentinel), which
    every packed weight key in {!Fast} satisfies. Accumulation order
    per key matches the [Hashtbl] code this replaces, so weights are
    byte-identical; only iteration order differs.

    A table is heap-backed (mutable, growable — what {!create} builds
    and training uses) or map-backed (read-only values living in a
    [Bigarray.Array1] view over an mmap'd model file — what
    {!of_sorted_mapped} builds). Lookups behave identically in both;
    {!add}/{!set} on a mapped table raise [Invalid_argument]. *)

type t

val create : int -> t
(** [create hint] sizes the table for at least [hint] slots (rounded
    up to a power of two, minimum 16). *)

val of_sorted_mapped :
  keys:int array ->
  vals:(float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  verify:(unit -> unit) ->
  t
(** A read-only table whose values stay in [vals] (a view over a
    mapped file; [vals.(j)] belongs to [keys.(j)]) and whose probe
    index is built on the heap from [keys]. [keys] must be strictly
    increasing and non-negative — the canonical order the v4 writer
    emits — or [Failure] is raised. [verify] is the lazy checksum for
    the mapped payload: it runs once, at the first read-path entry
    point that calls {!ensure_verified}, and should raise
    [Lexkit.Diag.Error] on mismatch. *)

val ensure_verified : t -> unit
(** Run the pending [verify] closure of a mapped table (idempotent;
    no-op on heap tables). Called by {!Fast} at inference entry points
    so corruption in a lazily-mapped payload surfaces as a structured
    diagnostic before any value is trusted. Safe to call from several
    threads at once: the first call verifies under a lock, and the
    others wait for it. *)

val storage : t -> [ `Heap | `Mapped ]

val get : t -> int -> float
(** [get t k] is the value bound to [k], or [0.] when unbound. *)

val get_into : t -> int array -> pos:int -> len:int -> float array -> unit
(** [get_into t keys ~pos ~len out] stores [get t keys.(j)] into
    [out.(j)] for [pos <= j < pos + len]: a batch of lookups in one
    call, with no float boxed on the way. Raises [Invalid_argument]
    when the range does not fit both arrays. *)

val add : t -> int -> float -> unit
(** [add t k d] accumulates [d] onto the binding for [k], creating it
    at [d] when absent. [d = 0.] on an absent key is a no-op, matching
    the guarded [Hashtbl] accumulator it replaces. *)

val set : t -> int -> float -> unit
(** [set t k v] binds [k] to [v], replacing any existing binding
    (inserts even [v = 0.], like [Hashtbl.replace]). *)

val iter : (int -> float -> unit) -> t -> unit
val fold : (int -> float -> 'a -> 'a) -> t -> 'a -> 'a
val length : t -> int

val mean_probe_length : t -> float
(** Mean number of slots a lookup of a bound key inspects (1.0 is
    every key in its home slot); [0.] on an empty table. A mapped
    table reports its probe index. *)
